"""Dyadic frequency decomposition, Besov norms, paraproducts, and the
frequency-localized inequalities built on them.

The dyadic family lives on annuli A_j = {2^(j-1) < |xi| < 2^(j+1)}.  Each
multiplier starts from one smooth compactly supported radial bump scaled
by 2^j and is then normalized pointwise on the lattice so the dyadic sum
is exactly 1 on every resolved xi != 0; lattice exactness is what the
reconstruction tests lean on.  The family is homogeneous: on the integer
lattice the smallest nonzero |xi| is 1, so the blocks j = 0 .. j_max
cover every mode but the mean, and a block index outside that range
meets no lattice point and is the zero field.

A block whose annulus holds no nonzero coefficient of the field is
exactly zero, and is not transformed: `nonzero_blocks` marks it, and
`besov_norm`, `bony_decompose` and `log_inequality_ratio` put its known
result (a term 0.0, a zero array, a block sup 0.0) in its place, so
every sum is formed in the same order as over all blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spectral as sp
from .spectral import SpectralField, TorusGrid, TWO_PI


def _in_support(r: np.ndarray) -> np.ndarray:
    """Mask of 1/2 < r < 2, the open support of the bump."""
    return (r > 0.5) & (r < 2.0)


def _bump_profile(r: np.ndarray) -> np.ndarray:
    """Smooth bump supported exactly on (1/2, 2)."""
    out = np.zeros_like(r)
    inside = _in_support(r)
    x = r[inside]
    out[inside] = np.exp(-1.0 / ((x - 0.5) * (2.0 - x)))
    return out


class DyadicPartition:
    """Multipliers Phi_j, j = 0 .. j_max, on the annuli A_j for one grid."""

    def __init__(self, grid: TorusGrid):
        self.j_max = math.ceil(math.log2(grid.n / 2))
        raw = np.stack([_bump_profile(grid.kmag / 2.0**j) for j in self.resolved()])
        total = raw.sum(axis=0)
        scale = np.where(total > 0, total, 1.0)
        self.phi = sp._frozen(np.where(grid.ksq > 0, raw / scale, 0.0))

    def multiplier(self, j: int) -> np.ndarray | None:
        """Phi_j on the lattice, or None when A_j misses the lattice."""
        return self.phi[j] if 0 <= j <= self.j_max else None

    def resolved(self) -> range:
        return range(self.j_max + 1)


def build_partition(grid: TorusGrid) -> DyadicPartition:
    """The cached partition of a grid; every function below uses it."""
    return _partition(grid.n)


@lru_cache(maxsize=16)
def _partition(n: int) -> DyadicPartition:
    # Keyed by n, and the partition holds no grid, so that the cache keeps
    # no grid alive.
    return DyadicPartition(TorusGrid(n))


def nonzero_blocks(f: SpectralField) -> list[SpectralField | None]:
    """block_j f for j = 0 .. j_max, with None for every block that is
    exactly the zero field: no nonzero coefficient of f has
    1/2 < |xi|/2^j < 2, the support test of the multiplier's bump."""
    r = f.grid.kmag[f.coef != 0]
    return [
        dyadic_block(f, j) if _in_support(r / 2.0**j).any() else None
        for j in build_partition(f.grid).resolved()
    ]


def dyadic_block(f: SpectralField, j: int) -> SpectralField:
    """Frequency-localized piece Phi_j f (the zero field when A_j misses
    the lattice)."""
    mult = build_partition(f.grid).multiplier(j)
    if mult is None:
        return SpectralField.zeros(f.grid)
    return SpectralField(f.grid, mult * f.coef)


@dataclass(frozen=True)
class BesovSpec:
    """Regularity s and integrability (p, q) of a homogeneous Besov space."""

    s: float
    p: float
    q: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError("regularity index must be finite")
        for name, v in (("p", self.p), ("q", self.q)):
            if not (v >= 1.0):
                raise ValueError(f"{name} must lie in [1, inf], got {v}")


def besov_norm(f: SpectralField, spec: BesovSpec) -> float:
    """l^q over resolved j of 2^(j s) ||block_j f||_{L^p}."""
    if not f.is_zero_mean():
        raise sp.MeanModeError("homogeneous Besov norm needs a zero-mean field")
    terms = np.array([
        2.0 ** (j * spec.s) * (0.0 if block is None else sp.lp_norm(block, spec.p))
        for j, block in enumerate(nonzero_blocks(f))
    ])
    if np.isinf(spec.q):
        return float(terms.max())
    return float((terms**spec.q).sum() ** (1.0 / spec.q))


def sobolev_norm(f: SpectralField, s: float, homogeneous: bool = True) -> float:
    """Exact multiplier form: |xi|^s, or (1 + |xi|^2)^(s/2) with the mean."""
    g = f.grid
    if homogeneous:
        if s < 0 and not f.is_zero_mean():
            raise sp.MeanModeError("negative-order homogeneous norm needs zero mean")
        weight = np.where(g.ksq > 0, sp.symbol_power(g, s), 0.0)
    else:
        weight = (1.0 + g.ksq) ** s
    return math.sqrt(sp.weighted_l2_norm_sq(f, weight))


# --- paraproducts ------------------------------------------------------------


def bony_decompose(f: SpectralField, g: SpectralField):
    """Low-high, high-high, and high-low parts of the product fg:

        fg = T(f,g) + R(f,g) + T(g,f)
        T(f,g) = sum_j S_{j-1} f block_j g,
        R(f,g) = sum_{|i|<=1} sum_j block_j f block_{j+i} g

    with S_{j-1} = sum_{l <= j-2} block_l.  This is the convention
    S_j = sum_{l <= j-1} block_l of Bahouri, Chemin and Danchin, Fourier
    Analysis and Nonlinear PDEs (Springer 2011), section 2.2; the paper's
    abstract in PAPER.md does not settle it.  All block products are
    formed on a 2x padded grid so the three parts (and their sum) are
    alias-free; the returned RealFields live on that padded grid.
    """
    sp._check_same_grid(f, g)
    for name, F in (("f", f), ("g", g)):
        if not F.is_zero_mean():
            raise sp.MeanModeError(f"{name} must be zero-mean for the paraproduct split")
    fine = sp.TorusGrid(2 * f.grid.n)
    # None marks an empty block, whose terms add exactly 0.0 and are skipped.
    f_blocks, g_blocks = (
        [None if b is None else sp.oversampled_values(b, 2) for b in nonzero_blocks(h)]
        for h in (f, g)
    )

    def paraproduct(lows, highs):
        acc = np.zeros((fine.n, fine.n))
        running = np.zeros_like(acc)
        for idx, high in enumerate(highs):
            # running holds sum_{l <= j-2} at the time block j is consumed
            if idx >= 2 and lows[idx - 2] is not None:
                running += lows[idx - 2]
            if high is not None:
                acc += running * high
        return acc

    t_fg = paraproduct(f_blocks, g_blocks)
    t_gf = paraproduct(g_blocks, f_blocks)
    r_fg = np.zeros_like(t_fg)
    for a, fa in enumerate(f_blocks):
        for gb in g_blocks[max(a - 1, 0) : a + 2]:
            if fa is not None and gb is not None:
                r_fg += fa * gb
    return (
        sp.RealField(fine, t_fg),
        sp.RealField(fine, r_fg),
        sp.RealField(fine, t_gf),
    )


def product_estimate_ratio(f: SpectralField, g: SpectralField, sigma1: float, sigma2: float) -> float:
    """||fg||_{H^dot(s1+s2-1)} / (||f||_{H^dot s1} ||g||_{H^dot s2}) for
    s1, s2 < 1 with s1 + s2 > 0; zero when f or g vanishes."""
    if not (sigma1 < 1.0 and sigma2 < 1.0 and sigma1 + sigma2 > 0.0):
        raise ValueError(
            f"need sigma1, sigma2 < 1 and sigma1 + sigma2 > 0, got ({sigma1}, {sigma2})"
        )
    sp._check_same_grid(f, g)
    for name, F in (("f", f), ("g", g)):
        if not F.is_zero_mean():
            raise sp.MeanModeError(f"{name} must be zero-mean")
    denom = sobolev_norm(f, sigma1) * sobolev_norm(g, sigma2)
    if denom == 0.0:
        return 0.0
    n = f.grid.n
    factor = sp._oversample_factor_for(sp.active_band(f), sp.active_band(g), n=n)
    fine = sp.TorusGrid(factor * n)
    prod = sp.forward(
        sp.RealField(fine, sp.oversampled_values(f, factor) * sp.oversampled_values(g, factor))
    )
    num = sobolev_norm(sp.zero_mean(prod), sigma1 + sigma2 - 1.0)
    return num / denom


# --- localized inequalities --------------------------------------------------


@dataclass(frozen=True)
class GradientLogReport:
    """Sup-gradient bound diagnostics: the ratio against the logarithmic
    bracket, and the split behind it.  Its low term is `l2_u`; `term_mid`
    and `term_high` sum the blocked gradient sups below and from
    `n_split`."""

    ratio: float
    grad_sup: float
    l2_u: float
    linf_w: float
    hs_u: float
    n_split: int
    term_mid: float
    term_high: float
    high_tail_bound: float


def log_inequality_ratio(w: SpectralField, s: float) -> GradientLogReport:
    """||grad u||_inf against ||u||_2 + ||w||_inf log2(2 + ||u||_{H^s}) + 1
    for the divergence-free u with curl u = w; requires s > 2.

    The split reports sup norms of the blocked gradient: the first
    `n_split` dyadic blocks (each controlled by ||w||_inf) and the tail
    (controlled by 2^(n_split (2-s)) ||u||_{H^s}), with
    n_split = ceil(log2(2 + ||u||_{H^s}) / (s - 2)) clamped to the
    resolved range.
    """
    if s <= 2.0:
        raise ValueError(f"regularity s must exceed 2, got {s}")
    partition = build_partition(w.grid)
    u1, u2 = sp.biot_savart(w)
    linf_w, grad_sup = sp.vorticity_gradient_sups(w)
    l2_u = math.sqrt(sp.l2_norm_sq(u1) + sp.l2_norm_sq(u2))
    hs_u = math.sqrt(sum(sobolev_norm(F, s, homogeneous=False) ** 2 for F in (u1, u2)))
    denom = l2_u + linf_w * math.log2(2.0 + hs_u) + 1.0
    ratio = grad_sup / denom

    n_split = math.ceil(math.log2(2.0 + hs_u) / (s - 2.0))
    n_split = min(max(n_split, 1), partition.j_max)
    term_mid = term_high = 0.0
    for j, block in enumerate(nonzero_blocks(w)):
        block_sup = 0.0 if block is None else sp.gradient_sup(block)
        if j < n_split:
            term_mid += block_sup
        else:
            term_high += block_sup
    return GradientLogReport(
        ratio=ratio,
        grad_sup=grad_sup,
        l2_u=l2_u,
        linf_w=linf_w,
        hs_u=hs_u,
        n_split=n_split,
        term_mid=term_mid,
        term_high=term_high,
        high_tail_bound=2.0 ** (n_split * (2.0 - s)) * hs_u,
    )


@dataclass(frozen=True)
class BernsteinRatios:
    l2: float
    linf: float


def bernstein_ratio(f: SpectralField, j: int, k: int, support: str = "annulus") -> BernsteinRatios:
    """sup_{|gamma| = k} ||d^gamma f||_p / (2^(jk) ||f||_p) for p = 2 and
    p = inf.

    The sup runs over multi-indices gamma, as in Bernstein's lemma of
    Bahouri, Chemin and Danchin (Springer 2011, Lemma 2.1); it is not
    ||nabla^k f||_p, and the paper's abstract in PAPER.md does not settle
    the choice.  For k = 1 in 2D the two differ by at most a factor
    sqrt(2), because max_i |xi_i| >= |xi| / sqrt(2); diagonal modes
    xi = (m, m) attain that gap.

    `support` declares what the caller built: "annulus" requires the
    active spectrum inside 2^(j-1) <= |xi| <= 2^(j+1) (two-sided bounds
    apply), "ball" inside |xi| <= 2^j (upper bound only).
    """
    if k < 0:
        raise ValueError("derivative order k must be nonnegative")
    if support not in ("annulus", "ball"):
        raise ValueError(f"support must be 'annulus' or 'ball', got {support!r}")
    g = f.grid
    active = sp.active_modes(f)
    if not active.any():
        raise ValueError("zero input")
    radius = g.kmag[active]
    if support == "annulus":
        if radius.min() < 2.0 ** (j - 1) or radius.max() > 2.0 ** (j + 1):
            raise ValueError(f"spectrum not supported in the dyadic annulus at scale 2^{j}")
    else:
        if radius.max() > 2.0**j:
            raise ValueError(f"spectrum not supported in the ball of radius 2^{j}")
    if k == 0:
        return BernsteinRatios(l2=1.0, linf=1.0)

    scale = 2.0 ** (j * k)
    sup2 = 0.0
    supinf = 0.0
    for k1 in range(k + 1):
        k2 = k - k1
        weight = np.abs(g.kd1) ** k1 * np.abs(g.kd2) ** k2
        sup2 = max(sup2, math.sqrt(sp.weighted_l2_norm_sq(f, weight**2)))
        deriv = SpectralField(g, (1j * g.kd1) ** k1 * (1j * g.kd2) ** k2 * f.coef)
        supinf = max(supinf, sp.lp_norm(deriv, np.inf))
    return BernsteinRatios(
        l2=sup2 / (scale * sp.l2_norm(f)),
        linf=supinf / (scale * sp.lp_norm(f, np.inf)),
    )
