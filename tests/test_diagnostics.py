"""Closed-form tests for the inequality ratios, the growth and regime tags,
and the norms of monitored quantities."""

import math

import numpy as np
import pytest

from mhd2d import diagnostics as dg
from mhd2d import dynamics as dyn
from mhd2d import littlewood_paley as lp
from mhd2d import regimes
from mhd2d import spectral as sp


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


class TestZeroMeanPreconditions:
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda m, z: dg.gn_ratio(m, 1.5), id="gn_ratio"),
            pytest.param(
                lambda m, z: dg.commutator_ratio(z, m, 0.5, (2, np.inf, 2, np.inf)),
                id="commutator_ratio-s-below-1",
            ),
            pytest.param(lambda m, z: lp.sobolev_norm(m, -0.5), id="sobolev_norm-negative-s"),
            pytest.param(lambda m, z: lp.bony_decompose(m, z), id="bony_decompose"),
            pytest.param(
                lambda m, z: lp.product_estimate_ratio(m, z, 0.5, 0.5), id="product_estimate_ratio"
            ),
            pytest.param(lambda m, z: lp.log_inequality_ratio(m, 3.0), id="log_inequality_ratio"),
        ],
    )
    def test_a_nonzero_mean_mode_raises(self, call):
        g = sp.TorusGrid(32)
        with_mean = modes(g, (1.0, 0, 0), (1.0, 1, 2))
        zero_mean = modes(g, (1.0, 2, 1))
        with pytest.raises(sp.MeanModeError):
            call(with_mean, zero_mean)


class TestMonitoredNorms:
    def test_hgamma_b_norm_of_a_single_mode(self, grid64):
        # j = cos(3 x1 + 4 x2): ||Lambda^gamma b|| = 5^(gamma - 1) ||j||_2.
        state = dyn.MHDState(0.0, sp.SpectralField.zeros(grid64), modes(grid64, (1.0, 3, 4)))
        expect = 5.0 ** (1.7 - 1.0) * math.pi * math.sqrt(2.0)
        assert dg.hgamma_b_norm(state, 1.7) == pytest.approx(expect, rel=1e-12)

    def test_classify_growth(self):
        t = np.arange(11.0)
        assert dg.classify_growth(t, np.ones(11)) == "bounded"
        assert dg.classify_growth(t, np.exp(-t)) == "bounded"
        assert dg.classify_growth(t, 2.0**t) == "growing"

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

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("kind", ["orszag-tang", "random-band"])
    def test_record_gradient_sup_matches_gradient_sup(self, kind, n):
        # Both read `sp.vorticity_gradient_rows`.
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=n, dt=1e-3, t_end=0.0)
        state = dyn.make_initial(sp.TorusGrid(n), kind, seed=n, band=8)
        rec = dg.compute_record(state, cfg)
        assert rec.linf_grad_u == sp.gradient_sup(state.w)

    def test_record_gradient_sup_of_a_cellular_flow(self, grid64):
        # w = cos x1 cos x2: |grad u|^2 = (sin^2 x1 sin^2 x2 + cos^2 x1 cos^2 x2)/2,
        # whose largest value 1/2 is taken at the grid point x = 0.
        w = modes(grid64, (0.5, 1, 1), (0.5, 1, -1))
        state = dyn.MHDState(0.0, w, sp.SpectralField.zeros(grid64))
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=64, dt=1e-3, t_end=0.0)
        rec = dg.compute_record(state, cfg)
        assert rec.linf_grad_u == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
        _, grad_sq = next(sp.vorticity_gradient_rows(w))
        assert grad_sq[0, 0] == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("kind", ["orszag-tang", "random-band"])
    def test_budget_residual_of_a_state_at_rest(self, kind):
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=32, dt=1e-3, t_end=3e-3)
        init = dyn.make_initial(sp.TorusGrid(32), kind, amplitude=0.0)
        recs = [r for _, r in dyn.run(cfg, init)]
        assert len(recs) == 2
        with pytest.raises(ValueError, match="zero initial energy"):
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
