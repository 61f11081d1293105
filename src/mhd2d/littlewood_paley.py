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

The paraproduct blocks of f and g sample on the grid that the sum B of
their exact bands needs, by `spectral.product`'s rule capped at 2n, one
`_fine_rows` pass per field.  The parts are returned on the 2n grid: when
B <= n/2 - 1 they form on the n grid and their exact spectra are sampled
there, equal to products formed on the 2n grid to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import spectral as sp
from .spectral import SpectralField, TorusGrid


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
    """Multipliers Phi_j, j = 0 .. j_max, on the annuli A_j for one grid:
    `phi[j]` is Phi_j on the lattice.  Each call builds them afresh;
    `build_partition` is the cached one."""

    def __init__(self, grid: TorusGrid):
        self.j_max = math.ceil(math.log2(grid.n / 2))
        kmag = np.sqrt(grid.ksq)
        raw = np.stack([_bump_profile(kmag / 2.0**j) for j in range(self.j_max + 1)])
        total = raw.sum(axis=0)
        scale = np.where(total > 0, total, 1.0)
        self.phi = sp._frozen(np.where(grid.ksq > 0, raw / scale, 0.0))


@cache
def build_partition(grid: TorusGrid) -> DyadicPartition:
    """The partition of a grid, built once per grid like the grid itself;
    every function below uses it."""
    return DyadicPartition(grid)


def nonzero_blocks(f: SpectralField) -> list[SpectralField | None]:
    """block_j f for j = 0 .. j_max, with None for every block that is
    exactly the zero field: no nonzero coefficient of f has
    1/2 < |xi|/2^j < 2, the support test of the multiplier's bump."""
    r = np.sqrt(f.grid.ksq[f.coef != 0])
    return [
        dyadic_block(f, j) if _in_support(r / 2.0**j).any() else None
        for j in range(build_partition(f.grid).j_max + 1)
    ]


def dyadic_block(f: SpectralField, j: int) -> SpectralField:
    """Frequency-localized piece Phi_j f (the zero field when A_j misses
    the lattice)."""
    if not isinstance(j, (int, np.integer)):
        raise ValueError(f"block index j must be an integer, got {j!r}")
    partition = build_partition(f.grid)
    if not 0 <= j <= partition.j_max:
        return SpectralField.zeros(f.grid)
    return SpectralField(f.grid, partition.phi[int(j)] * f.coef)


@dataclass(frozen=True)
class BesovSpec:
    """Regularity s and integrability (p, q) of a homogeneous Besov space."""

    s: float
    p: float
    q: float

    def __post_init__(self):
        sp.check_finite("regularity index s", self.s)
        for name, v in (("p", self.p), ("q", self.q)):
            if not (v >= 1.0):
                raise ValueError(f"{name} must lie in [1, inf], got {v}")


def besov_norm(f: SpectralField, spec: BesovSpec) -> float:
    """l^q over resolved j of 2^(j s) ||block_j f||_{L^p}."""
    sp.check_zero_mean(f=f)
    if spec.s > 0:
        j_max = build_partition(f.grid).j_max
        sp.check_weight(f"regularity index s = {spec.s}", 2.0, j_max * spec.s)
    terms = np.array([
        2.0 ** (j * spec.s) * (0.0 if block is None else sp.lp_norm(block, spec.p))
        for j, block in enumerate(nonzero_blocks(f))
    ])
    return sp._sampled_norms(lambda: [(terms.copy(),)], [(spec.q,)], counting=True)[0][0]


# --- paraproducts ------------------------------------------------------------


def _block_samples(h: SpectralField, factor: int) -> list[np.ndarray | None]:
    """h's dyadic blocks sampled on the factor-times finer grid in one
    `_fine_rows` pass, with None for each empty block.  The Nyquist check
    runs on h: a multiplier with values in [0, 1] lifts no coefficient of
    a block above h's round-off."""
    sp._occupied_columns(h, factor)  # the Nyquist check
    blocks = nonzero_blocks(h)
    leading = [sp._support(b)[0] for b in blocks if b is not None]
    filled = iter(sp._fine_arrays(leading, factor) if leading else [])
    return [None if b is None else next(filled) for b in blocks]


def _paraproducts(f: SpectralField, g: SpectralField, factor: int) -> list[np.ndarray]:
    """T(f,g), R(f,g) and T(g,f) sampled on the factor-times finer grid,
    from the blocks' samples there."""
    m = factor * f.grid.n
    # None marks an empty block, whose terms add exactly 0.0 and are skipped.
    f_blocks = _block_samples(f, factor)
    g_blocks = f_blocks if g is f else _block_samples(g, factor)

    def paraproduct(lows, highs):
        acc = np.zeros((m, m))
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
    return [t_fg, r_fg, t_gf]


def bony_decompose(f: SpectralField, g: SpectralField):
    """Low-high, high-high, and high-low parts of the product fg:

        fg = T(f,g) + R(f,g) + T(g,f)
        T(f,g) = sum_j S_{j-1} f block_j g,
        R(f,g) = sum_{|i|<=1} sum_j block_j f block_{j+i} g

    with S_{j-1} = sum_{l <= j-2} block_l.  This is the convention
    S_j = sum_{l <= j-1} block_l of Bahouri, Chemin and Danchin, Fourier
    Analysis and Nonlinear PDEs (Springer 2011), section 2.2; the paper's
    abstract in PAPER.md does not settle it.

    The returned RealFields live on the 2n grid.  The block products form
    on the grid that the sum B of the fields' exact bands needs, by
    `product`'s rule, capped at 2n: on the 2n grid every part's samples
    are exact pointwise products whatever B is.  Below that cap (B <=
    n/2 - 1, so on the n grid) each part's exact spectrum, zero beyond B,
    is sampled on the 2n grid, and the values agree with products formed
    on the 2n grid to round-off.
    """
    sp._check_same_grid(f, g)
    sp.check_zero_mean(f=f, g=g)
    n = f.grid.n
    band = sp._support(f)[1] + sp._support(g)[1]
    factor = sp._grid_factor(n, 2 * band + 2, 2)
    parts = _paraproducts(f, g, factor)
    if factor == 1:
        parts = sp._fine_arrays([sp._band_columns(part, band) for part in parts], 2)
    fine = sp.TorusGrid(2 * n)
    return tuple(sp.RealField(fine, part) for part in parts)


def product_estimate_ratio(f: SpectralField, g: SpectralField, sigma1: float, sigma2: float) -> float:
    """||fg||_{H^dot(s1+s2-1)} / (||f||_{H^dot s1} ||g||_{H^dot s2}) for
    s1, s2 < 1 with s1 + s2 > 0; zero when f or g vanishes.  fg is
    `sp.product(f, g)`, on the grid its bands need, of f and g at unit
    scale (`spectral._binary_order`): the ratio is of degree 0 in each."""
    if not (sigma1 < 1.0 and sigma2 < 1.0 and sigma1 + sigma2 > 0.0):
        raise ValueError(
            f"need sigma1, sigma2 < 1 and sigma1 + sigma2 > 0, got ({sigma1}, {sigma2})"
        )
    sp._check_same_grid(f, g)
    sp.check_zero_mean(f=f, g=g)
    f, g = (sp._ldexp(F, -sp._binary_order(F)) for F in (f, g))
    denom = sp.lambda_norm(f, sigma1) * sp.lambda_norm(g, sigma2)
    if denom == 0.0:
        return 0.0
    num = sp.lambda_norm(sp.zero_mean(sp.product(f, g)), sigma1 + sigma2 - 1.0)
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

    Both u-norms are read off w's spectrum through Lambda^-1 w, as
    |u_hat| = |xi|^-1 |w_hat|, by `spectral.lambda_norm`:
    ||u||_2 = ||Lambda^-1 w|| and
    ||u||_{H^s} = ||(1 + |xi|^2)^(s/2) Lambda^-1 w||.

    The split reports sup norms of the blocked gradient: the first
    `n_split` dyadic blocks (each controlled by ||w||_inf) and the tail
    (controlled by 2^(n_split (2-s)) ||u||_{H^s}), with
    n_split = ceil(log2(2 + ||u||_{H^s}) / (s - 2)) clamped to the
    resolved range.
    """
    sp.check_finite("regularity s", s)
    if not s > 2.0:
        raise ValueError(f"regularity s must exceed 2, got {s}")
    g = w.grid
    partition = build_partition(g)
    lam_inv_w = sp.fractional_laplacian(w, -0.5)
    (linf_w,), (grad_sup,) = sp.vorticity_gradient_norms(w, (np.inf,), (np.inf,))
    l2_u = sp.lambda_norm(lam_inv_w)
    # The Bessel potential (1 + |xi|^2)^(s/2), which keeps the mean.
    sp.check_weight(f"regularity s = {s}", 1.0 + float(g.ksq.max()), s)
    hs_u = sp.lambda_norm(SpectralField(g, (1.0 + g.ksq) ** (s / 2.0) * lam_inv_w.coef))
    denom = l2_u + linf_w * math.log2(2.0 + hs_u) + 1.0
    ratio = grad_sup / denom

    n_split = math.ceil(math.log2(2.0 + hs_u) / (s - 2.0))
    n_split = min(max(n_split, 1), partition.j_max)
    term_mid = term_high = 0.0
    for j, block in enumerate(nonzero_blocks(w)):
        block_sup = (
            0.0 if block is None else sp.vorticity_gradient_norms(block, (), (np.inf,))[1][0]
        )
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


def bernstein_ratio(f: SpectralField, j: int, k: int) -> BernsteinRatios:
    """sup_{|gamma| = k} ||d^gamma f||_p / (2^(jk) ||f||_p) for p = 2 and
    p = inf.

    The sup runs over multi-indices gamma, as in Bernstein's lemma of
    Bahouri, Chemin and Danchin (Springer 2011, Lemma 2.1); it is not
    ||nabla^k f||_p, and the paper's abstract in PAPER.md does not settle
    the choice.  For k = 1 in 2D the two differ by at most a factor
    sqrt(2), because max_i |xi_i| >= |xi| / sqrt(2); diagonal modes
    xi = (m, m) attain that gap.

    f's active spectrum must lie in one of the lemma's two supports, read
    off the spectrum: the ball |xi| <= 2^j (the upper bound applies) or
    the annulus 2^(j-1) <= |xi| <= 2^(j+1) (both bounds apply).
    """
    sp.check_finite("scale j", j)
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"derivative order k must be a nonnegative integer, got {k}")
    sp.check_weight(f"scale j = {j}", 2.0, j + 1)  # the annulus's outer radius
    g = f.grid
    active = sp.active_modes(f)
    if not active.any():
        raise ValueError("zero input")
    radius = np.sqrt(g.ksq[active])
    lo, hi = radius.min(), radius.max()
    if not (hi <= 2.0**j or 2.0 ** (j - 1) <= lo <= hi <= 2.0 ** (j + 1)):
        raise ValueError(f"spectrum not supported in the ball or the dyadic annulus at scale 2^{j}")
    if k == 0:
        return BernsteinRatios(l2=1.0, linf=1.0)

    # max(2^j, n/2)^k bounds 2^(jk) and every derivative weight below.
    sp.check_weight(f"order k = {k} at scale j = {j}", max(2.0**j, g.n / 2), k)
    scale = 2.0 ** (j * k)
    sup2 = 0.0
    supinf = 0.0
    for k1 in range(k + 1):
        k2 = k - k1
        deriv = SpectralField(g, (1j * g.kd[:, None]) ** k1 * (1j * g.kd) ** k2 * f.coef)
        sup2 = max(sup2, sp.lambda_norm(deriv))
        supinf = max(supinf, sp.lp_norm(deriv, np.inf))
    return BernsteinRatios(
        l2=sup2 / (scale * sp.lambda_norm(f)),
        linf=supinf / (scale * sp.lp_norm(f, np.inf)),
    )
