"""Closed-form tests for the inequality ratios, the growth and regime tags,
and the norms of monitored quantities."""

import dataclasses
import math

import numpy as np
import pytest

from mhd2d import diagnostics as dg
from mhd2d import dynamics as dyn
from mhd2d import littlewood_paley as lp
from mhd2d import regimes
from mhd2d import spectral as sp

import oracles


def modes(g, *terms):
    """Real field sum of a * cos(k1 x1 + k2 x2) over terms (a, k1, k2),
    built from exact coefficients."""
    coef = np.zeros((g.n, g.n), dtype=np.complex128)
    for a, k1, k2 in terms:
        if (k1, k2) == (0, 0):
            coef[0, 0] += a * g.n**2
        else:
            coef[k1, k2] += 0.5 * a * g.n**2
            coef[-k1, -k2] += 0.5 * a * g.n**2
    return sp.SpectralField(g, coef)


@pytest.fixture(scope="module")
def grid64():
    return sp.TorusGrid(64)


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "alpha, beta, nu, eta, tag",
        [
            # alpha + 2 beta = 3 is excluded from theorem 1.2, just above it is inside.
            (0.25, 1.375, 1.0, 1.0, regimes.TAG_OUTSIDE),
            (0.25, 1.4, 1.0, 1.0, regimes.TAG_THEOREM_12),
            # beta = 5/4 is excluded (alpha < 1/2 and alpha + 2 beta > 3 already
            # force beta > 5/4), just above it is inside.
            (0.49, 1.25, 1.0, 1.0, regimes.TAG_OUTSIDE),
            (0.49, 1.26, 1.0, 1.0, regimes.TAG_THEOREM_12),
            # beta = 3/2 is the last beta of theorem 1.2 and not yet theorem 1.1.
            (0.1, 1.5, 1.0, 1.0, regimes.TAG_THEOREM_12),
            (0.1, 1.51, 1.0, 1.0, regimes.TAG_OUTSIDE),
            (0.0, 1.5, 0.0, 1.0, regimes.TAG_OUTSIDE),
            (0.0, 1.51, 0.0, 1.0, regimes.TAG_THEOREM_11),
            # alpha = 1/2 leaves theorem 1.2 for theorem 5.1.
            (0.49, 1.4, 1.0, 1.0, regimes.TAG_THEOREM_12),
            (0.5, 1.4, 1.0, 1.0, regimes.TAG_THEOREM_51),
            # nu = 0 with alpha != 0 fits no theorem.
            (0.3, 2.0, 0.0, 1.0, regimes.TAG_OUTSIDE),
        ],
    )
    def test_boundaries(self, alpha, beta, nu, eta, tag):
        assert regimes.classify_regime(alpha, beta, nu, eta) == tag


class TestRatios:
    def test_gn_ratio_of_a_single_mode(self, grid64):
        # ||f||_inf = 1, ||f||_2 = pi sqrt 2, ||Lambda^beta f||_2 = 5^beta pi sqrt 2,
        # so the ratio is 1 / (5 pi sqrt 2) for every beta.
        f = modes(grid64, (1.0, 3, 4))
        for beta in (1.5, 2.0):
            assert dg.gn_ratio(f, beta) == pytest.approx(1.0 / (5.0 * math.pi * math.sqrt(2.0)), rel=1e-12)

    def test_cz_ratio_is_one_at_p_two(self, grid64):
        w = sp.random_band_field(grid64, np.random.default_rng(3), band=12)
        assert dg.cz_ratio(w, 2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_cz_ratio_of_a_shear_is_one(self, grid64, p):
        # w = cos(3 x1) gives u = (0, sin(3 x1)/3): |grad u| = |d1 u2| = |w|.
        assert dg.cz_ratio(modes(grid64, (1.0, 3, 0)), p) == pytest.approx(1.0, rel=1e-12)

    def test_positivity_is_an_equality_at_p_two(self, grid64):
        # f = 2 + cos x1 + cos(2 x2)/2, alpha = 1/2: both sides are
        # 2 ||Lambda^(1/2) f||^2 = 2 (1 * 2 pi^2 + 2 * pi^2 / 2) = 6 pi^2.
        f = modes(grid64, (2.0, 0, 0), (1.0, 1, 0), (0.5, 0, 2))
        lhs, rhs = dg.positivity_check(f, 2, 0.5)
        assert lhs == pytest.approx(6.0 * math.pi**2, rel=1e-12)
        assert rhs == pytest.approx(6.0 * math.pi**2, rel=1e-12)

    @pytest.mark.parametrize("p, alpha", [(4, 0.5), (4, 1.0), (6, 0.3)])
    def test_positivity_lhs_below_rhs(self, grid64, p, alpha):
        f = modes(grid64, (2.0, 0, 0), (1.0, 1, 0), (0.5, 0, 2), (0.25, 2, 3))
        lhs, rhs = dg.positivity_check(f, p, alpha)
        assert 0.0 < lhs <= rhs

    def test_commutator_ratio_of_anisotropic_fields(self):
        # f = cos x1 + cos 11 x2: (d1 f)^2 forms on the n grid, (d2 f)^2 on
        # the 2n grid, but f Lambda^2 f and f^2, whose sum gives |grad f|^2,
        # share the 2n grid.  The 1e-14 mode of g lies below the
        # active-band threshold, yet products read exact bands: with
        # 11 + 5 > n/2 - 1, Lambda^2(fg) and f Lambda^2 g both form on the
        # 2n grid.
        n = 32
        g = sp.TorusGrid(n)
        f = modes(g, (1.0, 1, 0), (1.0, 0, 11))
        h = modes(g, (1.0, 0, 1), (1e-14, 5, 0))
        d1, d2 = (oracles.partial_derivative(f, axis) for axis in (1, 2))
        assert [sp.product(d1, d1).grid.n, sp.product(d2, d2).grid.n] == [n, 2 * n]
        assert sp.product(f, h).grid.n == 2 * n
        assert sp.product(f, sp.fractional_laplacian(h, 1.0)).grid.n == 2 * n
        assert sp.product(f, f).grid.n == sp.product(f, sp.fractional_laplacian(f, 1.0)).grid.n
        ratio = dg.commutator_ratio(f, h, 2.0, (4, 4, 4, 4))
        assert ratio == pytest.approx(_commutator_on_the_4n_grid(f, h, 2.0), rel=1e-13)

    @pytest.mark.parametrize("band, p, factor", [(2, 4, 2), (4, 4, 2), (4, 6, 2), (8, 4, 4)])
    def test_positivity_guard_samples_on_its_grid(self, band, p, factor):
        # f = c + cos(band x1 + phi) with each trough halfway between the
        # nodes of the m-grid: f >= (1 - cos(band pi/m))/2 > 0 there, and
        # -(1 - cos(band pi/m))/2 at the trough, a node of the 2m-grid.
        # The guard samples on the grid of factor max(2, k), k the
        # smallest power of two with k n/2 - 1 >= p band.
        n = 32
        g = sp.TorusGrid(n)

        def trough_between_nodes(m):
            coef = np.zeros((n, n), dtype=np.complex128)
            coef[0, 0] = 0.5 * (1.0 + math.cos(band * math.pi / m)) * n**2
            coef[band, 0] = 0.5 * n**2 * np.exp(1j * (math.pi - band * math.pi / m))
            coef[-band, 0] = np.conj(coef[band, 0])
            return sp.SpectralField(g, coef)

        lhs, rhs = dg.positivity_check(trough_between_nodes(factor * n), p, 0.5)
        assert 0.0 < lhs <= rhs
        with pytest.raises(ValueError, match="p > 2 requires a pointwise nonnegative field"):
            dg.positivity_check(trough_between_nodes(factor * n // 2), p, 0.5)

    def test_commutator_of_bands_summing_past_half_n_matches_the_2n_grid(self):
        # cos 8 x1 and cos 8 x2 at n = 32: 8 + 8 > n/2 - 1, yet each product
        # forms on the grid its band sum needs, and with exponents
        # (4, 4, 4, 4) every norm is an exact integral on both grids.
        ratios = [
            dg.commutator_ratio(modes(g, (1.0, 8, 0)), modes(g, (1.0, 0, 8)), 1.0, (4, 4, 4, 4))
            for g in (sp.TorusGrid(32), sp.TorusGrid(64))
        ]
        assert ratios[0] > 0.0
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)

    def test_commutator_of_a_solver_state_matches_its_2n_padding(self):
        # A dealiased state carries bands up to n/3 in w and in j, past
        # n/2 - 1 together.
        cfg = dyn.SolverConfig(alpha=0.0, beta=1.25, nu=0.0, eta=0.02, n=32, dt=1e-3, t_end=5e-3)
        init = dyn.make_initial(sp.TorusGrid(32), "random-band", seed=4, band=10)
        state = [s for s, _ in dyn.run(cfg, init)][-1]
        assert sp.active_band(state.w) + sp.active_band(state.j) > 32 // 2 - 1
        ratio = dg.commutator_ratio(state.w, state.j, 1.0, (4, 4, 4, 4))
        padded = dg.commutator_ratio(_padded(state.w), _padded(state.j), 1.0, (4, 4, 4, 4))
        assert 0.0 < ratio < math.inf
        assert ratio == pytest.approx(padded, rel=1e-12)

    def test_commutator_of_a_zero_field_is_zero(self, grid64):
        g = sp.random_band_field(grid64, np.random.default_rng(4), band=6)
        assert dg.commutator_ratio(sp.SpectralField.zeros(grid64), g, 1.0, (4, 4, 4, 4)) == 0.0

    def test_commutator_of_a_constant_field_is_zero(self, grid64):
        # f = 0.3: the commutator is transform round-off, not exactly zero,
        # but grad f and Lambda^s f vanish, so the ratio is 0 by definition.
        f = modes(grid64, (0.3, 0, 0))
        g = sp.random_band_field(grid64, np.random.default_rng(4), band=6)
        commutator = sp.fractional_laplacian(sp.product(f, g), 0.5) - sp.product(
            f, sp.fractional_laplacian(g, 0.5)
        )
        assert sp.lp_norm(commutator, 2) > 0.0
        assert dg.commutator_ratio(f, g, 1.0, (4, 4, 4, 4)) == 0.0

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize(
        "exponents, expect",
        [((4, 4, 4, 4), 1.0 / math.sqrt(6.0)), ((2, np.inf, 2, np.inf), 1.0 / (2.0 * math.sqrt(2.0)))],
    )
    def test_commutator_ratio_of_crossed_modes(self, n, exponents, expect):
        # f = cos x1, g = cos x2, s = 2: Lambda^2(fg) - f Lambda^2 g = fg,
        # with ||fg||_2 = pi.  ||cos||_4 = (3 pi^2 / 2)^(1/4) for each of
        # grad f, Lambda g, Lambda^2 f and g, so (4, 4, 4, 4) gives
        # pi / (2 sqrt(3/2) pi) = 1/sqrt 6; ||cos||_2 = pi sqrt 2 and
        # ||cos||_inf = 1, so (2, inf, 2, inf) gives pi / (2 pi sqrt 2).
        g = sp.TorusGrid(n)
        ratio = dg.commutator_ratio(modes(g, (1.0, 1, 0)), modes(g, (1.0, 0, 1)), 2.0, exponents)
        assert ratio == pytest.approx(expect, rel=1e-14)


def _padded(F):
    """F on the 2n grid: the same modes, its coefficients scaled by 4 for
    the (2n)^2 normalization."""
    n = F.grid.n
    k = F.grid.k.astype(int) % (2 * n)
    coef = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    coef[np.ix_(k, k)] = 4.0 * F.coef
    return sp.SpectralField(sp.TorusGrid(2 * n), coef)


def _commutator_on_the_4n_grid(f, g, s):
    """The (4, 4, 4, 4) commutator ratio from samples on the 4n grid, where
    each product is alias-free and each power mean an exact integral."""
    def on_4n(F):
        return sp.oversampled_values(F, 4)

    def norm(v, p):
        return ((2 * math.pi) ** 2 * np.mean(np.abs(v) ** p)) ** (1.0 / p)

    fv, gv = on_4n(f), on_4n(g)
    fg = sp.forward(sp.RealField(sp.TorusGrid(4 * f.grid.n), fv * gv))
    left = oracles.inverse(sp.fractional_laplacian(fg, s / 2)).values - fv * on_4n(
        sp.fractional_laplacian(g, s / 2)
    )
    grad = np.sqrt(sum(on_4n(oracles.partial_derivative(f, axis)) ** 2 for axis in (1, 2)))
    term1 = norm(grad, 4) * norm(on_4n(sp.fractional_laplacian(g, (s - 1) / 2)), 4)
    term2 = norm(on_4n(sp.fractional_laplacian(f, s / 2)), 4) * norm(gv, 4)
    return norm(left, 2) / (term1 + term2)


class TestZeroMeanPreconditions:
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda m, z: dg.gn_ratio(m, 1.5), id="gn_ratio"),
            pytest.param(
                lambda m, z: dg.commutator_ratio(z, m, 0.5, (2, np.inf, 2, np.inf)),
                id="commutator_ratio-s-below-1",
            ),
            pytest.param(lambda m, z: lp.bony_decompose(m, z), id="bony_decompose"),
            pytest.param(lambda m, z: lp.bony_decompose(z, m), id="bony_decompose-g"),
            pytest.param(
                lambda m, z: lp.product_estimate_ratio(m, z, 0.5, 0.5), id="product_estimate_ratio"
            ),
            pytest.param(
                lambda m, z: lp.product_estimate_ratio(z, m, 0.5, 0.5),
                id="product_estimate_ratio-g",
            ),
            pytest.param(lambda m, z: lp.besov_norm(m, lp.BesovSpec(0.5, 2, 2)), id="besov_norm"),
            pytest.param(lambda m, z: sp.fractional_laplacian(m, -0.5), id="fractional_laplacian"),
            pytest.param(lambda m, z: lp.log_inequality_ratio(m, 3.0), id="log_inequality_ratio"),
            pytest.param(lambda m, z: dg.cz_ratio(m, 2), id="cz_ratio-p2"),
            pytest.param(lambda m, z: dg.cz_ratio(m, 4), id="cz_ratio-p4"),
            pytest.param(
                lambda m, z: sp.vorticity_gradient_norms(m, (np.inf,), (np.inf,)),
                id="vorticity_gradient_norms",
            ),
        ],
    )
    def test_a_nonzero_mean_mode_raises(self, call):
        g = sp.TorusGrid(32)
        with_mean = modes(g, (1.0, 0, 0), (1.0, 1, 2))
        zero_mean = modes(g, (1.0, 2, 1))
        with pytest.raises(sp.MeanModeError):
            call(with_mean, zero_mean)


# Each guard that takes a float, with the message it gives a non-finite
# value and the one it gives the finite 1e300 (None where 1e300 is a
# valid amplitude).  The calls take the n = 32 grid g, a band-5 field f,
# its dyadic block b at j = 2, and the value x.
OVERFLOW = "is not a finite float"
FLOAT_GUARDS = {
    "random_band_field-band": (
        "band must lie in", "band must lie in",
        lambda g, f, b, x: sp.random_band_field(g, np.random.default_rng(0), x),
    ),
    "random_band_field-amplitude": (
        "amplitude must be finite", None,
        lambda g, f, b, x: sp.random_band_field(g, np.random.default_rng(0), 3, x),
    ),
    "make_initial-band": (
        "band must be finite", "exceeds the dealias cutoff",
        lambda g, f, b, x: dyn.make_initial(g, "random-band", band=x),
    ),
    "make_initial-amplitude": (
        "amplitude must be finite", None,
        lambda g, f, b, x: dyn.make_initial(g, "orszag-tang", amplitude=x),
    ),
    "fractional_laplacian": (
        "exponent gamma must be finite", f"exponent gamma = 1e\\+300: .* {OVERFLOW}",
        lambda g, f, b, x: sp.fractional_laplacian(f, x),
    ),
    "gn_ratio": (
        "interpolation exponent beta must be finite", f"exponent gamma = 1e\\+300: .* {OVERFLOW}",
        lambda g, f, b, x: dg.gn_ratio(f, x),
    ),
    "commutator_ratio": (
        "order s must be finite", f"exponent gamma = 5e\\+299: .* {OVERFLOW}",
        lambda g, f, b, x: dg.commutator_ratio(f, f, x, (4, 4, 4, 4)),
    ),
    "lambda_norm": (
        "exponent gamma must be finite", f"exponent gamma = 1e\\+300: .* {OVERFLOW}",
        lambda g, f, b, x: sp.lambda_norm(f, x),
    ),
    "log_inequality_ratio": (
        "regularity s must be finite", f"regularity s = 1e\\+300: .* {OVERFLOW}",
        lambda g, f, b, x: lp.log_inequality_ratio(f, x),
    ),
    "bernstein_ratio-j": (
        "scale j must be finite", f"scale j = 1e\\+300: .* {OVERFLOW}",
        lambda g, f, b, x: lp.bernstein_ratio(b, x, 1),
    ),
    "bernstein_ratio-k": (
        "derivative order k must be a nonnegative integer",
        "derivative order k must be a nonnegative integer, got 1e\\+300",
        lambda g, f, b, x: lp.bernstein_ratio(b, 2, x),
    ),
    "besov_norm-s": (
        "regularity index s must be finite", f"regularity index s = 1e\\+300: .* {OVERFLOW}",
        lambda g, f, b, x: lp.besov_norm(f, lp.BesovSpec(x, 4, 2)),
    ),
    "bernstein_ratio-ball": (
        "scale j must be finite", f"scale j = 1e\\+300: .* {OVERFLOW}",
        lambda g, f, b, x: lp.bernstein_ratio(b, x, 1),
    ),
    "positivity_check-alpha": (
        "alpha must lie in", "alpha must lie in",
        lambda g, f, b, x: dg.positivity_check(f, 2, x),
    ),
    "cz_ratio-p": (
        "p must be one of", "p must be one of",
        lambda g, f, b, x: dg.cz_ratio(f, x),
    ),
}


@pytest.mark.parametrize(
    "guard, value, message",
    [
        pytest.param(guard, value, huge if value == 1e300 else non_finite, id=f"{guard}-{value}")
        for guard, (non_finite, huge, _) in FLOAT_GUARDS.items()
        for value in (float("nan"), float("inf"), float("-inf"), 1e300)
        if value != 1e300 or huge is not None
    ],
)
def test_nan_fails_every_guard(guard, value, message):
    # NonFiniteFieldError is a ValueError too, so `match` tells the guard
    # from a NaN that got through it.
    call = FLOAT_GUARDS[guard][2]
    g = sp.TorusGrid(32)
    f = sp.random_band_field(g, np.random.default_rng(1), 5)
    with pytest.raises(ValueError, match=message):
        call(g, f, lp.dyadic_block(f, 2), value)


# Integer arguments: each bad value with the message it must give.  The
# calls take a band-5 field f at n = 32 and its dyadic block b at j = 2.
INTEGER_GUARDS = {
    "positivity_check-p": (
        "p must be an even integer >= 2",
        lambda f, b, x: dg.positivity_check(f, x, 0.5),
        [2.0, 4.0, 3, 0, -2, np.float64(2.0)],
    ),
    "bernstein_ratio-k": (
        "derivative order k must be a nonnegative integer",
        lambda f, b, x: lp.bernstein_ratio(b, 2, x),
        [1.5, 1.0, -1, np.int64(-1), np.float64(1.0)],
    ),
}


@pytest.mark.parametrize(
    "guard, value",
    [
        pytest.param(guard, value, id=f"{guard}-{type(value).__name__}-{value}")
        for guard, (_, _, values) in INTEGER_GUARDS.items()
        for value in values
    ],
)
def test_integer_guards(guard, value):
    message, call, _ = INTEGER_GUARDS[guard]
    f = sp.random_band_field(sp.TorusGrid(32), np.random.default_rng(1), 5)
    with pytest.raises(ValueError, match=message):
        call(f, lp.dyadic_block(f, 2), value)


# Finite arguments outside a function's domain (FLOAT_GUARDS has the
# non-finite ones): each bad value with the message it must give.  The
# calls take a band-5 field f at n = 32 and its dyadic block b at j = 2
# (|xi| in (2, 8)).
DOMAIN_GUARDS = {
    "gn_ratio-beta": (
        "interpolation exponent must exceed 1",
        lambda f, b, x: dg.gn_ratio(f, x),
        [1.0, 0.5, -2.0],
    ),
    "commutator_ratio-s": (
        "order s must be positive",
        lambda f, b, x: dg.commutator_ratio(f, f, x, (4, 4, 4, 4)),
        [0.0, -1.0],
    ),
    "commutator_ratio-exponents": (
        "exponents must come from",
        lambda f, b, x: dg.commutator_ratio(f, f, 1.0, x),
        [(3, 4, 4, 4), (4, 4, 4, 1)],
    ),
    "commutator_ratio-hoelder": (
        "Hoelder exponents inconsistent",
        lambda f, b, x: dg.commutator_ratio(f, f, 1.0, x),
        [(2, 2, 4, 4), (np.inf, 4, 2, 2)],
    ),
    "BesovSpec-p": ("p must lie in", lambda f, b, x: lp.BesovSpec(0.5, x, 2), [0.5, -1.0]),
    "BesovSpec-q": ("q must lie in", lambda f, b, x: lp.BesovSpec(0.5, 2, x), [0.5, 0.0]),
    "bernstein_ratio-ball": (
        "not supported in the ball",
        lambda f, b, x: lp.bernstein_ratio(b, x, 1),
        [0, 1],
    ),
    "dyadic_block-j": (
        "block index j must be an integer",
        lambda f, b, x: lp.dyadic_block(f, x),
        [1.5, float("nan"), float("inf")],
    ),
    "make_initial-kind": (
        "kind must be one of",
        lambda f, b, x: dyn.make_initial(f.grid, x),
        ["vortex", "Orszag-Tang"],
    ),
    "SolverConfig-dt": (
        "dt must be positive",
        lambda f, b, x: dyn.SolverConfig(alpha=0.0, beta=0.0, nu=0.0, eta=0.0, dt=x),
        [0.0, -1e-3],
    ),
    "SolverConfig-t_end": (
        "t_end must be nonnegative",
        lambda f, b, x: dyn.SolverConfig(alpha=0.0, beta=0.0, nu=0.0, eta=0.0, t_end=x),
        [-1e-3],
    ),
    "RealField-shape": (
        "expected shape",
        lambda f, b, x: sp.RealField(f.grid, np.zeros(x)),
        [(32, 16), (64, 64), (32,)],
    ),
    "SpectralField-shape": (
        "expected shape",
        lambda f, b, x: sp.SpectralField(f.grid, np.zeros(x, dtype=np.complex128)),
        [(32, 17), (16, 16), (32, 32, 1)],
    ),
}


@pytest.mark.parametrize(
    "guard, value",
    [
        pytest.param(guard, value, id=f"{guard}-{value}")
        for guard, (_, _, values) in DOMAIN_GUARDS.items()
        for value in values
    ],
)
def test_domain_guards(guard, value):
    message, call, _ = DOMAIN_GUARDS[guard]
    f = sp.random_band_field(sp.TorusGrid(32), np.random.default_rng(1), 5)
    with pytest.raises(ValueError, match=message):
        call(f, lp.dyadic_block(f, 2), value)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda z: dg.gn_ratio(z, 1.5), id="gn_ratio"),
        pytest.param(lambda z: dg.cz_ratio(z, 2), id="cz_ratio-p2"),
        pytest.param(lambda z: dg.cz_ratio(z, 4), id="cz_ratio-p4"),
        pytest.param(lambda z: lp.bernstein_ratio(z, 2, 1), id="bernstein_ratio"),
    ],
)
def test_the_zero_field_is_refused_by_the_ratios(call):
    with pytest.raises(ValueError, match="zero input"):
        call(sp.SpectralField.zeros(sp.TorusGrid(32)))


def test_numpy_integers_pass_the_integer_guards():
    g = sp.TorusGrid(32)
    f = modes(g, (2.0, 0, 0), (1.0, 1, 0), (0.5, 0, 2))
    assert dg.positivity_check(f, np.int64(4), 0.5) == dg.positivity_check(f, 4, 0.5)
    b = lp.dyadic_block(sp.random_band_field(g, np.random.default_rng(1), 5), 2)
    assert lp.bernstein_ratio(b, 2, np.int32(1)) == lp.bernstein_ratio(b, 2, 1)


def test_a_huge_p_or_a_tiny_field_reads_no_zero_norm():
    # |f|^p under- or overflows; the norm is then taken relative to the
    # sampled sup, at most (2 pi)^(2/p) times it.
    g = sp.TorusGrid(32)
    f = sp.random_band_field(g, np.random.default_rng(1), 5)
    top = sp.lp_norm(f, np.inf)
    for p in (1e300, 1e4):
        assert 0.0 < sp.lp_norm(f, p) <= (2 * math.pi) ** (2 / p) * top
    assert 0.0 < lp.besov_norm(f, lp.BesovSpec(0.5, 1e300, 2)) < math.inf
    # A huge q, or tiny or huge terms: the l^q sum is taken relative to
    # the largest term, so it lies between the l^inf value and 5^(1/q)
    # times it (5 blocks at n = 32).
    for scale, q in ((1e3, 400), (1.0, 400), (1.0, 1e300), (1e-200, 2), (1e200, 2)):
        scaled = sp.SpectralField(g, scale * f.coef)
        top = lp.besov_norm(scaled, lp.BesovSpec(0.5, 4, np.inf))
        norm = lp.besov_norm(scaled, lp.BesovSpec(0.5, 4, q))
        assert top <= norm <= 5 ** (1 / q) * top
    for scale in (1e-170, 1e200):
        scaled = sp.SpectralField(g, scale * f.coef)
        for p in (3, 4, 8):
            assert sp.lp_norm(scaled, p) == pytest.approx(scale * sp.lp_norm(f, p), rel=1e-12)


def test_a_subnormal_power_mean_is_taken_relative_to_the_sup():
    # At these scales the mean of |f|^8 is a subnormal float, short of
    # digits; relative to the sup it keeps them.
    f = sp.random_band_field(sp.TorusGrid(64), np.random.default_rng(7), band=12)
    for scale in (3e-39, 1e-39, 3e-40):
        scaled = sp.SpectralField(f.grid, scale * f.coef)
        want = scale * sp.lp_norm(f, 8)
        assert sp.lp_norm(scaled, 8) == pytest.approx(want, rel=1e-13, abs=0.0)


def _band12(seed):
    return sp.random_band_field(sp.TorusGrid(64), np.random.default_rng(seed), band=12)


# Norms and ratios of band-12 fields at n = 64 (f, g of seeds 5, 6; the
# Calderon-Zygmund ratio's w of seed 7), each with its degree d in the
# fields' scale c: call(c f, c g, c w) / c^d is the same at every c.
# |f|^2 and |f g| under- or overflow at these scales, and |w|^8 and
# |grad u|^8 from 1e-40 on.
SCALE_FREE_CALLS = {
    "lp_norm-p2": (1, lambda f, g, w: sp.lp_norm(f, 2)),
    "besov_norm-p2": (1, lambda f, g, w: lp.besov_norm(f, lp.BesovSpec(0.5, 2, 2))),
    "gn_ratio": (0, lambda f, g, w: dg.gn_ratio(f, 1.5)),
    "commutator_ratio-4444": (0, lambda f, g, w: dg.commutator_ratio(f, g, 1, (4, 4, 4, 4))),
    "commutator_ratio-2inf": (
        0, lambda f, g, w: dg.commutator_ratio(f, g, 1, (2, np.inf, np.inf, 2))
    ),
    "product_estimate_ratio": (0, lambda f, g, w: lp.product_estimate_ratio(f, g, 0.5, 0.5)),
    "bernstein_ratio-l2": (0, lambda f, g, w: lp.bernstein_ratio(lp.dyadic_block(f, 3), 3, 1).l2),
    "bernstein_ratio-linf": (
        0, lambda f, g, w: lp.bernstein_ratio(lp.dyadic_block(f, 3), 3, 1).linf
    ),
    **{f"cz_ratio-p{p}": (0, lambda f, g, w, p=p: dg.cz_ratio(w, p)) for p in (2, 4, 8)},
}


@pytest.mark.parametrize(
    "name, scale",
    [(name, c) for name in SCALE_FREE_CALLS if not name.startswith("cz_ratio")
     for c in (1e-170, 1e-160, 1e160)]
    + [(name, c) for name in SCALE_FREE_CALLS if name.startswith("cz_ratio")
       for c in (1e-40, 1e40, 1e-170, 1e160)],
)
def test_ratios_do_not_depend_on_scale(name, scale):
    degree, call = SCALE_FREE_CALLS[name]
    fields = [_band12(seed) for seed in (5, 6, 7)]
    scaled = [sp.SpectralField(F.grid, scale * F.coef) for F in fields]
    want = call(*fields)
    assert call(*scaled) / scale**degree == pytest.approx(want, rel=1e-13, abs=0.0)


def test_log_inequality_report_is_finite_at_a_huge_scale():
    # ||u||_{H^s} of 1e160 f overflows as a plain sum of squares.
    f = _band12(5)
    report = lp.log_inequality_ratio(sp.SpectralField(f.grid, 1e160 * f.coef), 3)
    assert all(math.isfinite(v) for v in dataclasses.astuple(report))


@pytest.mark.parametrize("scale", [1e-40, 1e40, 1e-160, 1e-170])
def test_record_norms_scale_with_the_state(scale):
    # |grad u|^2 is subnormal at 1e-160 and underflows to 0 at 1e-170.
    cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=64, dt=1e-3, t_end=0.0)
    state = dyn.make_initial(sp.TorusGrid(64), "random-band", seed=5, band=12)
    scaled = dyn.MHDState(
        0.0, *(sp.SpectralField(F.grid, scale * F.coef) for F in (state.w, state.j))
    )
    rec, rec_scaled = (dg.compute_record(s, cfg) for s in (state, scaled))
    for name in ("linf_w", "linf_grad_u", "lp4_w", "lp8_w"):
        want = scale * getattr(rec, name)
        assert getattr(rec_scaled, name) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
def test_gradient_sups_scale_with_the_field(scale):
    # |grad u|^2 underflows or overflows at these scales; the sups do not.
    w = sp.random_band_field(sp.TorusGrid(64), np.random.default_rng(7), band=12)
    scaled = sp.SpectralField(w.grid, scale * w.coef)
    (w_got,), (grad_got,) = sp.vorticity_gradient_norms(scaled, (np.inf,), (np.inf,))
    (w_want,), (grad_want,) = sp.vorticity_gradient_norms(w, (np.inf,), (np.inf,))
    for got, want in ((w_got, w_want), (grad_got, grad_want)):
        assert got == pytest.approx(scale * want, rel=1e-13, abs=0.0)


class TestMonitoredNorms:
    def test_hgamma_b_norm_of_a_single_mode(self, grid64):
        # j = cos(3 x1 + 4 x2): ||Lambda^gamma b|| = 5^(gamma - 1) ||j||_2.
        state = dyn.MHDState(0.0, sp.SpectralField.zeros(grid64), modes(grid64, (1.0, 3, 4)))
        expect = 5.0 ** (1.7 - 1.0) * math.pi * math.sqrt(2.0)
        assert oracles.hgamma_b_norm(state, 1.7) == pytest.approx(expect, rel=1e-12)

    def test_classify_growth(self):
        t = np.arange(11.0)
        assert oracles.classify_growth(t, np.ones(11)) == "bounded"
        assert oracles.classify_growth(t, np.exp(-t)) == "bounded"
        assert oracles.classify_growth(t, 2.0**t) == "growing"

    def test_record_lp_norms_match_lp_norm(self):
        # At amplitude 1e-170, w^2 underflows on the fine grid, so linf_w
        # must come from |w| itself.
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=64, dt=1e-3, t_end=0.0)
        for amplitude in (2.0, 1e-170):
            state = dyn.make_initial(sp.TorusGrid(64), "random-band", band=12, amplitude=amplitude)
            rec = dg.compute_record(state, cfg)
            assert rec.lp4_w == sp.lp_norm(state.w, 4)
            assert rec.linf_w == sp.lp_norm(state.w, np.inf) > 0.0
            assert rec.lp8_w == sp.lp_norm(state.w, 8)

    @pytest.mark.parametrize("amplitude", [2.0, 1e-170])
    def test_record_forms_the_gradient_columns_once(self, monkeypatch, amplitude):
        # At 1e-170, |w|^4 underflows and the reduction takes a second
        # pass; w's columns and the gradient blocks are not formed again.
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=64, dt=1e-3, t_end=0.0)
        state = dyn.make_initial(sp.TorusGrid(64), "random-band", band=12, amplitude=amplitude)
        calls = []

        def counting(name):
            real = getattr(sp, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapped

        for name in ("_gradient_coefs", "_occupied_columns"):
            monkeypatch.setattr(sp, name, counting(name))
        dg.compute_record(state, cfg)
        assert sorted(calls) == ["_gradient_coefs", "_occupied_columns"]

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("kind", ["orszag-tang", "random-band"])
    def test_record_gradient_sup_matches_gradient_sup(self, kind, n):
        # Both read `sp.vorticity_gradient_norms`.
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=n, dt=1e-3, t_end=0.0)
        state = dyn.make_initial(sp.TorusGrid(n), kind, seed=n, band=8)
        rec = dg.compute_record(state, cfg)
        (_,), (grad_sup,) = sp.vorticity_gradient_norms(state.w, (np.inf,), (np.inf,))
        assert rec.linf_grad_u == grad_sup

    def test_record_gradient_sup_of_a_cellular_flow(self, grid64):
        # w = cos x1 cos x2: |grad u|^2 = (sin^2 x1 sin^2 x2 + cos^2 x1 cos^2 x2)/2,
        # whose largest value 1/2 is taken at the grid point x = 0.
        w = modes(grid64, (0.5, 1, 1), (0.5, 1, -1))
        state = dyn.MHDState(0.0, w, sp.SpectralField.zeros(grid64))
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=64, dt=1e-3, t_end=0.0)
        rec = dg.compute_record(state, cfg)
        assert rec.linf_grad_u == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
        _, grad_sq = oracles.sampled_gradient_rows(w)
        assert grad_sq[0, 0] == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("kind", ["orszag-tang", "random-band"])
    def test_budget_residual_of_a_state_at_rest(self, kind):
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=32, dt=1e-3, t_end=3e-3)
        init = dyn.make_initial(sp.TorusGrid(32), kind, amplitude=0.0)
        recs = [r for _, r in dyn.run(cfg, init)]
        assert len(recs) == 2
        with pytest.raises(ValueError, match="zero initial energy"):
            dg.energy_budget_residual(recs, cfg)

    def test_budget_residual_needs_two_records(self):
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=32, dt=1e-3, t_end=0.0)
        recs = [r for _, r in dyn.run(cfg, dyn.make_initial(sp.TorusGrid(32), "orszag-tang"))]
        assert len(recs) == 1
        with pytest.raises(ValueError, match="at least two records"):
            dg.energy_budget_residual(recs, cfg)

    def test_record_rejects_a_non_finite_gradient_block(self, monkeypatch):
        # A NaN in one fine-grid row block of grad u, away from the first
        # block, must reach the record's finiteness check.
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=32, dt=1e-3, t_end=0.0)
        state = dyn.make_initial(sp.TorusGrid(32), "random-band", band=8)
        real, calls = np.fft.irfft, []

        def poisoned(a, *args, **kwargs):
            out = real(a, *args, **kwargs)
            calls.append(a.shape)
            if len(calls) == 6:  # w, d1u1, strain per block: block 1's strain
                out[1, 2] = np.nan
            return out

        monkeypatch.setattr(np.fft, "irfft", poisoned)
        with pytest.raises(sp.NonFiniteFieldError):
            dg.compute_record(state, cfg)
