"""Tests for the torus grid, transforms, and spectral operators."""

import ast
import dataclasses
import inspect
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhd2d import diagnostics as dg
from mhd2d import dynamics as dyn
from mhd2d import littlewood_paley as lp
from mhd2d import spectral as sp

import oracles


@pytest.fixture(scope="module")
def grid64():
    return sp.TorusGrid(64)


@pytest.fixture
def grid_calls(monkeypatch):
    """(n, built) for every TorusGrid(n) call while the test runs; built
    is True when the call had to build the grid."""
    calls = []
    new = sp.TorusGrid.__new__

    def spy(cls, n):
        calls.append((n, n not in cls._live))
        return new(cls, n)

    monkeypatch.setattr(sp.TorusGrid, "__new__", staticmethod(spy))
    return calls


class TestTorusGrid:
    @pytest.mark.parametrize("n", [7, 12, 4, 0, 48])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            sp.TorusGrid(n)

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_wavenumber_lattice_is_bijective(self, n):
        g = sp.TorusGrid(n)
        k1, k2 = np.meshgrid(g.k, g.k, indexing="ij")
        pairs = set(zip(k1.ravel().astype(int), k2.ravel().astype(int)))
        assert len(pairs) == n * n
        assert (0, 0) in pairs
        assert k1.min() == -n // 2 and k1.max() == n // 2 - 1

    def test_grids_with_equal_n_are_interchangeable(self):
        assert sp.TorusGrid(16) == sp.TorusGrid(16)
        assert sp.TorusGrid(16) != sp.TorusGrid(32)

    def test_one_live_grid_per_n(self):
        held = sp.TorusGrid(64)
        assert sp.TorusGrid(64) is held
        assert pickle.loads(pickle.dumps(held)) is held

    def test_config_builds_no_grid(self, grid_calls):
        dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=256)
        with pytest.raises(ValueError, match="power of two"):
            dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=96)
        assert grid_calls == []

    def test_each_grid_is_built_once(self, grid_calls):
        # A product of bands 3 + 3 + 3 > 16/2 - 1 and two Bony splits in a
        # row sample on the same 2n grid; the second and every later call
        # must find it built.
        g = sp.TorusGrid(16)
        f = sp.random_band_field(g, np.random.default_rng(3), 3)
        h = sp.random_band_field(g, np.random.default_rng(4), 3)
        assert sp.product(f, h, h).grid.n == 32
        lp.bony_decompose(f, h)
        lp.bony_decompose(f, h)
        assert sum(built for n, built in grid_calls if n == 32) <= 1

    def test_grid_mismatch_rejected(self, grid64):
        other = sp.TorusGrid(32)
        u = sp.SpectralField.zeros(grid64)
        v = sp.SpectralField.zeros(other)
        with pytest.raises(sp.GridMismatchError):
            u + v
        with pytest.raises(sp.GridMismatchError):
            v - u


class TestTransform:
    def test_constant_field_is_pure_dc(self, grid64):
        F = sp.forward(sp.RealField(grid64, np.ones((64, 64))))
        coef = F.coef.copy()
        assert coef[0, 0] == pytest.approx(64**2)
        coef[0, 0] = 0.0
        assert np.max(np.abs(coef)) < 1e-10

    def test_single_mode_sine(self, grid64):
        F = sp.forward(oracles.from_function(grid64, lambda x1, x2: np.sin(x1)))
        mags = np.abs(F.coef)
        assert np.count_nonzero(mags > 1e-9) == 2
        assert F.coef[1, 0] == pytest.approx(-0.5j * 64**2)
        assert F.coef[-1, 0] == pytest.approx(0.5j * 64**2)

    def test_round_trip_random_field(self, grid64):
        rng = np.random.default_rng(11)
        f = sp.RealField(grid64, rng.standard_normal((64, 64)))
        back = oracles.inverse(sp.forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_forward_is_exactly_hermitian(self, grid64):
        rng = np.random.default_rng(12)
        F = sp.forward(sp.RealField(grid64, rng.standard_normal((64, 64))))
        assert F.hermitian_defect() == 0.0

    def test_non_finite_input_rejected(self, grid64):
        bad = np.zeros((64, 64))
        bad[3, 4] = np.inf
        with pytest.raises(sp.NonFiniteFieldError):
            sp.RealField(grid64, bad)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 16, 32]))
    def test_parseval(self, seed, n):
        g = sp.TorusGrid(n)
        f = sp.RealField(g, np.random.default_rng(seed).standard_normal((n, n)))
        lhs = (2 * np.pi) ** 2 * np.mean(f.values**2)
        rhs = oracles.l2_norm_sq(sp.forward(f))
        assert abs(lhs - rhs) / lhs < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 16, 32]))
    def test_spectral_round_trip(self, seed, n):
        g = sp.TorusGrid(n)
        F = sp.forward(sp.RealField(g, np.random.default_rng(seed).standard_normal((n, n))))
        again = sp.forward(oracles.inverse(F))
        scale = np.max(np.abs(F.coef))
        assert np.max(np.abs(again.coef - F.coef)) / scale < 1e-12


class TestFractionalLaplacian:
    def test_identity_symbol_at_gamma_zero(self, grid64):
        rng = np.random.default_rng(5)
        F = sp.forward(sp.RealField(grid64, rng.standard_normal((64, 64))))
        out = sp.fractional_laplacian(F, 0.0)
        assert F.coef[0, 0] != 0.0  # the mean mode is covered too
        assert np.array_equal(out.coef, F.coef)

    def test_full_laplacian_on_single_mode(self, grid64):
        F = sp.forward(oracles.from_function(grid64, lambda x1, x2: np.sin(x1)))
        out = sp.fractional_laplacian(F, 1.0)
        assert np.max(np.abs(out.coef - F.coef)) / 64**2 < 1e-13

    def test_half_power_gives_mode_magnitude(self, grid64):
        F = sp.forward(oracles.from_function(grid64, lambda x1, x2: np.sin(2 * x1)))
        out = sp.fractional_laplacian(F, 0.5)
        assert np.max(np.abs(out.coef - 2.0 * F.coef)) / 64**2 < 1e-13

    def test_mean_mode_annihilated_for_positive_gamma(self, grid64):
        F = sp.forward(sp.RealField(grid64, np.ones((64, 64))))
        out = sp.fractional_laplacian(F, 0.7)
        assert np.max(np.abs(out.coef)) < 1e-10

    def test_negative_gamma_rejects_nonzero_mean(self, grid64):
        F = sp.forward(sp.RealField(grid64, 1.0 + np.zeros((64, 64))))
        with pytest.raises(sp.MeanModeError):
            sp.fractional_laplacian(F, -0.5)

    def test_gamma_below_minus_one_rejected(self, grid64):
        with pytest.raises(ValueError):
            sp.fractional_laplacian(sp.SpectralField.zeros(grid64), -1.5)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(0.1, 1.5),
        b=st.floats(0.1, 1.5),
        seed=st.integers(0, 2**31),
    )
    def test_symbols_multiply(self, a, b, seed):
        g = sp.TorusGrid(16)
        F = sp.random_band_field(g, np.random.default_rng(seed), band=5)
        two_step = sp.fractional_laplacian(sp.fractional_laplacian(F, a), b)
        one_step = sp.fractional_laplacian(F, a + b)
        scale = np.max(np.abs(one_step.coef)) or 1.0
        assert np.max(np.abs(two_step.coef - one_step.coef)) / scale < 1e-13


class TestDerivatives:
    def test_d1_of_sin_x1(self, grid64):
        F = sp.forward(oracles.from_function(grid64, lambda x1, x2: np.sin(x1)))
        d = oracles.inverse(oracles.partial_derivative(F, 1))
        x1, _ = oracles.coordinates(grid64)
        assert np.max(np.abs(d.values - np.cos(x1))) < 1e-12

    def test_d2_of_sin_x1_vanishes(self, grid64):
        F = sp.forward(oracles.from_function(grid64, lambda x1, x2: np.sin(x1)))
        d = oracles.inverse(oracles.partial_derivative(F, 2))
        assert np.max(np.abs(d.values)) < 1e-12

    def test_bad_axis_rejected(self, grid64):
        with pytest.raises(ValueError):
            oracles.partial_derivative(sp.SpectralField.zeros(grid64), 3)


class TestBiotSavart:
    def test_product_mode_closed_form(self, grid64):
        w = sp.forward(
            oracles.from_function(grid64, lambda x1, x2: np.sin(x1) * np.sin(x2))
        )
        u1, u2 = oracles.biot_savart(w)
        x1, x2 = oracles.coordinates(grid64)
        assert np.max(np.abs(oracles.inverse(u1).values - 0.5 * np.sin(x1) * np.cos(x2))) < 1e-12
        assert np.max(np.abs(oracles.inverse(u2).values + 0.5 * np.cos(x1) * np.sin(x2))) < 1e-12

    def test_cos_two_x1_closed_form(self, grid64):
        w = sp.forward(oracles.from_function(grid64, lambda x1, x2: np.cos(2 * x1)))
        u1, u2 = oracles.biot_savart(w)
        x1, _ = oracles.coordinates(grid64)
        assert np.max(np.abs(oracles.inverse(u1).values)) < 1e-13
        assert np.max(np.abs(oracles.inverse(u2).values - 0.5 * np.sin(2 * x1))) < 1e-12

    def test_round_trip_and_divergence_random(self, grid64):
        rng = np.random.default_rng(21)
        w = sp.random_band_field(grid64, rng, band=20)
        u1, u2 = oracles.biot_savart(w)
        scale = np.max(np.abs(w.coef))
        assert np.max(np.abs(oracles.curl(u1, u2).coef - w.coef)) / scale < 1e-12
        assert np.max(np.abs(oracles.divergence(u1, u2).coef)) / scale < 1e-13

    def test_gradient_l2_equals_curl_l2(self, grid64):
        rng = np.random.default_rng(22)
        w = sp.random_band_field(grid64, rng, band=20, amplitude=3.0)
        u1, u2 = oracles.biot_savart(w)
        grad_sq = sum(
            oracles.l2_norm_sq(oracles.partial_derivative(c, ax)) for c in (u1, u2) for ax in (1, 2)
        )
        assert abs(grad_sq - oracles.l2_norm_sq(w)) / oracles.l2_norm_sq(w) < 1e-13

    def test_nonzero_mean_rejected(self, grid64):
        F = sp.forward(sp.RealField(grid64, 1.0 + np.zeros((64, 64))))
        with pytest.raises(sp.MeanModeError):
            oracles.biot_savart(F)


class TestDealias:
    def test_low_band_unchanged(self, grid64):
        rng = np.random.default_rng(31)
        F = sp.random_band_field(grid64, rng, band=16)  # inside n/4
        out = oracles.dealias(F)
        assert np.array_equal(out.coef, F.coef)
        assert out.dealiased

    def test_dealiased_is_read_from_the_coefficients(self, grid64):
        # cos(16 x1) from exact samples 1, 0, -1, 0: the transform is exact.
        exact = np.tile(np.array([1.0, 0.0, -1.0, 0.0] * 16)[:, None], (1, 64))
        assert sp.forward(sp.RealField(grid64, exact)).dealiased
        # The test is exact: round-off outside the band counts.
        x1, _ = oracles.coordinates(grid64)
        assert not sp.forward(sp.RealField(grid64, np.cos(3 * x1))).dealiased
        noise = np.random.default_rng(5).standard_normal((64, 64))
        full_band = sp.forward(sp.RealField(grid64, noise))
        assert not full_band.dealiased
        assert oracles.dealias(full_band).dealiased
        assert [f.name for f in dataclasses.fields(sp.SpectralField)] == ["grid", "coef"]

    def test_false_dealiased_claim_raises(self, grid64):
        def pair(col):
            coef = np.zeros((64, 64), dtype=np.complex128)
            coef[0, col] = coef[0, -col] = 1.0
            return coef

        c = grid64.dealias_cutoff
        assert sp.SpectralField(grid64, pair(c), True).dealiased
        with pytest.raises(sp.DealiasError):
            sp.SpectralField(grid64, pair(c + 1), True)
        assert not sp.SpectralField(grid64, pair(c + 1)).dealiased

    def test_high_single_mode_zeroed(self, grid64):
        coef = np.zeros((64, 64), dtype=np.complex128)
        coef[31, 0] = 1.0
        coef[-31, 0] = 1.0
        out = oracles.dealias(sp.SpectralField(grid64, coef))
        assert np.max(np.abs(out.coef)) == 0.0

    def test_product_matches_fine_grid_convolution(self):
        # Oracle: the same product formed alias-free on a 2x finer grid.
        n = 64
        g = sp.TorusGrid(n)
        fine = sp.TorusGrid(2 * n)
        rng = np.random.default_rng(41)
        F = sp.random_band_field(g, rng, band=n // 3)
        G = sp.random_band_field(g, rng, band=n // 3)

        prod = oracles.inverse(F).values * oracles.inverse(G).values
        coarse = oracles.dealias(sp.forward(sp.RealField(g, prod)))

        def embed(src):
            big = np.zeros((2 * n, 2 * n), dtype=np.complex128)
            idx = np.fft.fftfreq(n, 1.0 / n).astype(int) % (2 * n)
            big[np.ix_(idx, idx)] = src.coef * 4  # coefficient scale (2n/n)^2
            return sp.SpectralField(fine, big)

        fine_prod = sp.forward(
            sp.RealField(fine, oracles.inverse(embed(F)).values * oracles.inverse(embed(G)).values)
        )
        idx = np.fft.fftfreq(n, 1.0 / n).astype(int) % (2 * n)
        restricted = fine_prod.coef[np.ix_(idx, idx)] / 4
        oracle = oracles.dealias(sp.SpectralField(g, restricted))
        scale = np.max(np.abs(oracle.coef))
        assert np.max(np.abs(coarse.coef - oracle.coef)) / scale < 1e-12


class TestNorms:
    def test_lp_norm_of_sine(self, grid64):
        F = sp.forward(oracles.from_function(grid64, lambda x1, x2: np.sin(x1)))
        assert sp.lp_norm(F, 2) == pytest.approx(np.sqrt(2) * np.pi)
        assert sp.lp_norm(F, np.inf) == pytest.approx(1.0, abs=1e-9)
        # int sin^4 over the square = 3 pi^2 / 2
        assert sp.lp_norm(F, 4) == pytest.approx((1.5 * np.pi**2) ** 0.25, rel=1e-12)

    def test_oversampling_recovers_true_sup(self, grid64):
        # Collocation max of cos(31 x1) with a quarter-cell shift undershoots;
        # the 4x grid must not.
        F = sp.forward(oracles.from_function(grid64, lambda x1, x2: np.cos(16 * x1 + 0.3)))
        coarse_max = np.max(np.abs(oracles.inverse(F).values))
        over_max = np.max(np.abs(sp.oversampled_values(F, 4)))
        assert over_max >= coarse_max
        assert over_max == pytest.approx(1.0, abs=1 - np.cos(np.pi / 16))

    def test_random_band_field_determinism(self, grid64):
        a = sp.random_band_field(grid64, np.random.default_rng(77), band=9)
        b = sp.random_band_field(grid64, np.random.default_rng(77), band=9)
        assert np.array_equal(a.coef, b.coef)

    @pytest.mark.parametrize("p", [0.0, 0.5, -1.0, np.nan])
    def test_lp_norm_rejects_p_outside_one_to_inf(self, monkeypatch, p):
        F = sp.random_band_field(sp.TorusGrid(32), np.random.default_rng(5), band=5)

        def transform(*args, **kwargs):
            raise AssertionError("a transform ran before p was checked")

        monkeypatch.setattr(np.fft, "irfft", transform)
        with pytest.raises(ValueError, match="exponent p"):
            sp.lp_norm(F, p)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_lambda_norm_is_the_root_of_lambda_norm_sq(self, monkeypatch, n):
        # On a field of normal scale, and on the zero field, the rescaled
        # sum never runs; where the plain sum of 2^-600 F underflows and
        # that of 2^600 F overflows, it scales back to the same bits.
        g = sp.TorusGrid(n)
        F = sp.random_band_field(g, np.random.default_rng(n), band=n // 3)
        scaled = {e: sp._ldexp(F, e) for e in (-600, 600)}

        def rescale(*args):
            raise AssertionError("the rescaled sum ran")

        for s in (-1.0, -0.5, 0.0, 0.5, 1.4):
            with monkeypatch.context() as m:
                m.setattr(sp, "_ldexp", rescale)
                root = sp.lambda_norm(F, s)
                assert root == math.sqrt(sp.lambda_norm_sq(F, s))
                assert sp.lambda_norm(sp.SpectralField.zeros(g), s) == 0.0
            for e, G in scaled.items():
                assert sp.lambda_norm(G, s) == math.ldexp(root, e)

    def test_random_band_field_rejects_negative_amplitude(self, grid64):
        with pytest.raises(ValueError, match="amplitude"):
            sp.random_band_field(grid64, np.random.default_rng(1), band=5, amplitude=-1.0)


def _nyquist_free_field(g, rng):
    """Random real field with content in every mode up to max component n/2 - 1."""
    n = g.n
    coef = sp.forward(sp.RealField(g, rng.standard_normal((n, n)))).coef.copy()
    coef[n // 2, :] = 0.0
    coef[:, n // 2] = 0.0
    return sp.SpectralField(g, coef)


def _zero_padded_oversample(F, factor):
    """Reference: the half spectrum embedded in a full m x (m/2 + 1) zero array."""
    n, m = F.grid.n, factor * F.grid.n
    half = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    rows = np.fft.fftfreq(n, 1.0 / n).astype(int) % m
    half[rows, : n // 2 + 1] = F.coef[:, : n // 2 + 1]
    return np.fft.irfft2(half, s=(m, m)) * factor**2


class TestCompactColumns:
    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_inverse_matches_irfft2(self, n):
        rng = np.random.default_rng(n)
        for width in (1, n // 3 + 1, n // 2 + 1):
            half = np.zeros((n, n // 2 + 1), dtype=np.complex128)
            half[:, :width] = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
            ref = np.fft.irfft2(half, s=(n, n))
            scratch = np.zeros_like(half)
            assert np.array_equal(sp._inverse_columns(half[:, :width], n, scratch), ref)

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_forward_matches_rfft2(self, n):
        x = np.random.default_rng(n + 1).standard_normal((n, n))
        ref = np.fft.rfft2(x)
        for width in (1, n // 3 + 1, n // 2 + 1):
            assert np.array_equal(sp._forward_columns(x, width), ref[:, :width])

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_one_scratch_serves_alternating_transforms(self, n):
        # A stage runs all its transforms through one zero-tailed half
        # spectrum; each result stays that of rfft2/irfft2, bit for bit.
        rng = np.random.default_rng(n + 3)
        width = n // 3 + 1
        half = np.zeros((n, n // 2 + 1), dtype=np.complex128)
        samples, cols = np.empty((n, n)), np.empty((n, width), dtype=np.complex128)
        for _ in range(2):
            x = rng.standard_normal((n, n))
            assert sp._forward_columns(x, width, out=cols, half=half) is cols
            assert np.array_equal(cols, np.fft.rfft2(x)[:, :width])
            assert not half[:, width:].any()
            padded = np.zeros_like(half)
            padded[:, :width] = cols
            assert sp._inverse_columns(cols, n, out=samples, half=half) is samples
            assert np.array_equal(samples, np.fft.irfft2(padded, s=(n, n)))

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_hermitian_extend_of_leading_columns(self, n):
        half = np.fft.rfft2(np.random.default_rng(n + 2).standard_normal((n, n)))
        for width in range(1, n // 2 + 2):
            padded = half.copy()
            padded[:, width:] = 0.0
            full = sp._hermitian_extend(padded, n)
            assert np.array_equal(sp._hermitian_extend(half[:, :width], n), full)
            assert sp.SpectralField(sp.TorusGrid(n), full).hermitian_defect() == 0.0

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    @pytest.mark.parametrize("kind", ["band8", "nyquist-free", "zero"])
    def test_oversampled_values_match_zero_padded_reference(self, n, factor, kind):
        # factor^2 is applied to the coefficients as they are padded, the
        # reference scales the transform's output: the same bits.  At
        # n = 8 and 16 the grids of factors 1 and 2 have fewer rows than
        # ROW_BLOCK.
        g = sp.TorusGrid(n)
        rng = np.random.default_rng(factor)
        F = {
            "band8": lambda: sp.random_band_field(g, rng, band=min(8, n // 2 - 1)),
            "nyquist-free": lambda: _nyquist_free_field(g, rng),
            "zero": lambda: sp.SpectralField.zeros(g),
        }[kind]()
        assert np.array_equal(sp.oversampled_values(F, factor), _zero_padded_oversample(F, factor))

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_oversampled_values_at_factor_three(self, n):
        # At n = 16 the 48 rows are no whole number of ROW_BLOCK-row
        # blocks.  factor^2 = 9 is not a power of two, so the reference
        # agrees to round-off, not bit for bit.
        F = _nyquist_free_field(sp.TorusGrid(n), np.random.default_rng(n))
        ref = _zero_padded_oversample(F, 3)
        assert np.max(np.abs(sp.oversampled_values(F, 3) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_gradient_magnitude_uses_the_trace_free_identity(self, grid64):
        # The rows take |grad u|^2 = 2 (d1u1)^2 + (sigma^2 + w^2)/2, sigma =
        # d1u2 + d2u1; the four squared components agree to round-off.
        w = sp.random_band_field(grid64, np.random.default_rng(8), band=20)
        grads = oracles.velocity_gradient(w)
        assert np.array_equal(grads[3].coef, -grads[0].coef)
        vals = [sp.oversampled_values(c, 4) for c in grads]
        four = vals[0] ** 2 + vals[1] ** 2 + vals[2] ** 2 + vals[3] ** 2
        w_rows, grad_sq = oracles.sampled_gradient_rows(w)
        assert np.array_equal(w_rows, sp.oversampled_values(w, 4))
        assert np.max(np.abs(grad_sq - four)) <= 1e-14 * four.max()
        exact = float(np.sqrt(four.max()))
        (_,), (grad_sup,) = sp.vorticity_gradient_norms(w, (np.inf,), (np.inf,))
        assert grad_sup == pytest.approx(exact, rel=1e-14)

    def test_compute_record_makes_three_transforms(self, monkeypatch):
        # One real pass over the OVERSAMPLE grid each for w, d1u1 and the
        # strain d1u2 + d2u1, and no whole-array transform.
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=32, dt=1e-3, t_end=0.0)
        state = dyn.make_initial(sp.TorusGrid(32), "random-band", band=8)
        m = sp.OVERSAMPLE * 32
        rows, whole = [], []

        def counting(real, log):
            def wrapped(a, *args, **kwargs):
                log.append(a.shape[0])
                return real(a, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.fft, "irfft", counting(np.fft.irfft, rows))
        for name in ("rfft2", "irfft2"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name), whole))
        dg.compute_record(state, cfg)
        assert sum(rows) == 3 * m
        assert whole == []

    @pytest.mark.parametrize("p", [4, 8])
    def test_cz_ratio_makes_three_transforms(self, monkeypatch, p):
        # w, d1u1 and the strain, one real pass each, serve both norms.
        w = sp.random_band_field(sp.TorusGrid(32), np.random.default_rng(p), band=8)
        rows = []
        real = np.fft.irfft

        def counting(a, *args, **kwargs):
            rows.append(a.shape[0])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting)
        dg.cz_ratio(w, p)
        assert sum(rows) == 3 * sp.OVERSAMPLE * 32


def _copies(blocks):
    """Copies of scratch row blocks, in order."""
    return [b.copy() for b in blocks]


class TestRowBlocks:
    @pytest.mark.parametrize("n", [8, 32, 128])
    @pytest.mark.parametrize("kind", ["band8", "nyquist-free", "zero"])
    def test_rows_match_oversampled_values(self, n, kind):
        g = sp.TorusGrid(n)
        rng = np.random.default_rng(n)
        F = {
            "band8": lambda: sp.random_band_field(g, rng, band=min(8, n // 2 - 1)),
            "nyquist-free": lambda: _nyquist_free_field(g, rng),
            "zero": lambda: sp.SpectralField.zeros(g),
        }[kind]()
        G = sp.random_band_field(g, rng, band=3)
        factor = max(oracles.sampling_factor(H) for H in (F, G))  # the widest band's
        leading = [sp._occupied_columns(H, factor)[0] for H in (F, G)]
        blocks = [[v.copy() for v in vals] for vals in sp._fine_rows(leading, factor)]
        for i, H in enumerate((F, G)):
            rows = np.concatenate([b[i] for b in blocks])
            assert np.array_equal(rows, sp.oversampled_values(H, factor))

    def test_buffers_are_reused(self, grid64):
        F = sp.random_band_field(grid64, np.random.default_rng(3), band=9)
        cols, factor = sp._occupied_columns(F)
        assert factor * 64 > sp.ROW_BLOCK  # more than one block
        seen = {id(vals[0]) for vals in sp._fine_rows([cols], factor)}
        assert len(seen) == 1

    def test_nyquist_content_rejected(self, grid64):
        coef = np.zeros((64, 64), dtype=np.complex128)
        coef[32, 0] = 1.0
        with pytest.raises(ValueError, match="Nyquist"):
            sp.lp_norm(sp.SpectralField(grid64, coef), 4)

    def test_dealiased_field_skips_the_active_band_scan(self, grid64, monkeypatch):
        # A dealiased field is Nyquist-free by its coefficients alone.
        def scan(F):
            raise AssertionError("active_band scanned a dealiased field")

        f = sp.random_band_field(grid64, np.random.default_rng(6), band=20)
        assert f.dealiased
        monkeypatch.setattr(sp, "active_band", scan)
        sp.oversampled_values(f, 2)
        sp.lp_norm(f, 4)
        sp.vorticity_gradient_norms(f, (np.inf,), (np.inf,))

    @pytest.mark.parametrize("p", [1, 3, 4, 8, np.inf])
    def test_lp_norm_matches_whole_array(self, grid64, p):
        F = sp.random_band_field(grid64, np.random.default_rng(5), band=20)
        vals = np.abs(sp.oversampled_values(F, sp.OVERSAMPLE))
        if np.isinf(p):
            assert sp.lp_norm(F, p) == vals.max()
        else:
            whole = (4 * np.pi**2 * np.mean(vals**p)) ** (1 / p)
            assert sp.lp_norm(F, p) == pytest.approx(whole, rel=1e-14)

    def test_compute_record_peak_memory(self):
        # Two whole arrays of the 1024 x 1024 fine grid take 16 MB; the
        # streamed record stays below that.
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=256, dt=1e-3, t_end=0.0)
        state = dyn.make_initial(sp.TorusGrid(256), "random-band", band=40)
        dg.compute_record(state, cfg)
        assert oracles.traced_peak(lambda: dg.compute_record(state, cfg)) < 16 * 2**20

    def test_oversampled_values_peak_memory(self):
        # The 512 x 512 output takes 2 MB; a fresh zero-tailed half
        # spectrum for the real pass would add 2 MB more.
        F = sp.random_band_field(sp.TorusGrid(256), np.random.default_rng(4), band=8)
        sp.oversampled_values(F, 2)
        assert oracles.traced_peak(lambda: sp.oversampled_values(F, 2)) < 3 * 2**20

    def test_lp_norm_peak_memory(self):
        # One whole 512 x 512 fine-grid array takes 2 MB.
        F = sp.random_band_field(sp.TorusGrid(128), np.random.default_rng(2), band=40)
        sp.lp_norm(F, 4)
        assert oracles.traced_peak(lambda: sp.lp_norm(F, 4)) < 2 * 2**20


def _grid_sups(w, factor):
    """Maxima of |w| and of |grad u|^2 (curl u = w) on the factor-times
    finer grid, from the four squared gradient components, streamed."""
    cols = sp._occupied_columns(w, factor)[0]
    top_w = top_sq = 0.0
    for v, d11, d21, d12 in sp._fine_rows([cols, *oracles.gradient_coefs(w.grid, cols)], factor):
        top_w = max(top_w, np.abs(v).max())
        top_sq = max(top_sq, (2.0 * d11**2 + d21**2 + d12**2).max())
    return top_w, top_sq


def _band_fields(n):
    """For B = 1 .. n/3: a band-B field and the list of it and its nonzero
    dyadic blocks.  Past n = 32 only the full-band field brings its
    blocks: they span every block band, as block j's band stops growing
    with B at B = 2^(j+1)."""
    g = sp.TorusGrid(n)
    rng = np.random.default_rng(n)
    for b in range(1, g.dealias_cutoff + 1):
        f = sp.random_band_field(g, rng, band=b)
        blocks = lp.nonzero_blocks(f) if n <= 32 or b == g.dealias_cutoff else []
        yield f, [f] + [block for block in blocks if block is not None]


# The same node evaluated by transforms of different sizes, or |grad u|^2
# by the trace-free identity against four squares, agrees to 1e-14
# relative (test_gradient_magnitude_uses_the_trace_free_identity).
ROUND_OFF = 1e-14


def _sec_sq(x):
    return 1.0 / math.cos(x) ** 2


class TestBandGrid:
    """Sup and L^p norms sample a field of band B on the grid of the
    smallest power-of-two factor f >= 1 with f n >= 12 B, at most 4."""

    def test_factor_rule(self):
        g = sp.TorusGrid(128)
        band8 = sp.random_band_field(g, np.random.default_rng(0), band=8)
        edge = np.zeros((128, 128), dtype=np.complex128)
        edge[0, g.dealias_cutoff] = edge[0, -g.dealias_cutoff] = 1.0
        cases = [(band8, 1), (sp.SpectralField(g, edge), 4), (sp.SpectralField.zeros(g), 1)]
        for F, factor in cases:
            assert sp._occupied_columns(F)[1] == oracles.sampling_factor(F) == factor

    @pytest.mark.parametrize("n", [32, 128])
    def test_sups_lie_within_the_derived_bounds(self, n):
        # Nested grids: collocation max <= sampled sup <= 4x-grid max.
        # Ehlich-Zeller in each variable, on m > 2 deg nodes: a degree-d
        # polynomial's sup is at most sec^2(pi d / m) times its grid max;
        # d = B for w and 2B for |grad u|^2.  The 32x grid stands for the
        # sup.  At n = 128 it is 4096^2 points, so it checks only the
        # widest band of each factor, where B / m is largest.
        for f, fields in _band_fields(n):
            for F in fields:
                b = oracles.band(F)
                m = oracles.sampling_factor(F) * n
                (s_w,), (s_grad,) = sp.vorticity_gradient_norms(F, (np.inf,), (np.inf,))
                assert s_w == sp.lp_norm(F, np.inf)
                lo_w, lo_sq = _grid_sups(F, 1)
                hi_w, hi_sq = _grid_sups(F, 4)
                assert lo_w * (1 - ROUND_OFF) <= s_w <= hi_w * (1 + ROUND_OFF)
                assert lo_sq * (1 - ROUND_OFF) <= s_grad**2 <= hi_sq * (1 + ROUND_OFF)
                if n == 128 and (F is not f or b not in (10, 21, 42)):
                    continue
                ref_w, ref_sq = _grid_sups(F, 32)
                assert ref_w <= _sec_sq(np.pi * b / m) * s_w * (1 + ROUND_OFF)
                assert ref_sq <= _sec_sq(2 * np.pi * b / m) * s_grad**2 * (1 + ROUND_OFF)

    @pytest.mark.parametrize("n", [32, 128])
    def test_lp4_and_lp8_are_exact_on_the_band_grid(self, n):
        # |f|^p has degree p B < m = f n, so its grid mean is the integral.
        for _, fields in _band_fields(n):
            for F in fields:
                for p in (4, 8):
                    fine = sp.oversampled_values(F, sp.OVERSAMPLE)
                    whole = (sp.TWO_PI**2 * np.mean(np.abs(fine) ** p)) ** (1 / p)
                    assert sp.lp_norm(F, p) == pytest.approx(whole, rel=1e-13)


def _band_field(g, band, seed):
    return sp.random_band_field(g, np.random.default_rng(seed), band=band)


class TestProduct:
    """`product` forms the product of fields of active bands summing to B
    on the grid of the smallest power-of-two factor f >= 1 with
    f n/2 - 1 >= B."""

    def test_crossed_cosines(self):
        # cos x1 cos x2 = (e^(i(x1+x2)) + e^(i(x1-x2)) + c.c.)/4.
        n = 16
        g = sp.TorusGrid(n)
        cos1, cos2 = (np.zeros((n, n), dtype=np.complex128) for _ in range(2))
        cos1[1, 0] = cos1[-1, 0] = cos2[0, 1] = cos2[0, -1] = 0.5 * n**2
        P = sp.product(sp.SpectralField(g, cos1), sp.SpectralField(g, cos2))
        expect = np.zeros((n, n), dtype=np.complex128)
        expect[1, 1] = expect[1, -1] = expect[-1, 1] = expect[-1, -1] = 0.25 * n**2
        assert P.grid is g
        assert np.max(np.abs(P.coef - expect)) <= 1e-14 * n**2

    @pytest.mark.parametrize(
        "bands, factor",
        [((15,), 1), ((7, 8), 1), ((8, 8), 2), ((5, 5, 5), 1), ((5, 5, 6), 2),
         ((10, 10, 11), 2), ((10, 11, 11), 4)],
    )
    def test_grid_follows_the_band_sum(self, bands, factor):
        g = sp.TorusGrid(32)
        fields = [_band_field(g, b, seed) for seed, b in enumerate(bands)]
        assert [oracles.band(F) for F in fields] == list(bands)
        assert sp.product(*fields).grid.n == factor * 32

    def test_exact_below_the_active_threshold(self):
        # f = cos x1 + 9e-14 cos 9x1 and h = cos x2: the 9e-14 mode lies
        # below the active threshold, and the product keeps it all the
        # same.  cos a cos b = (cos(a + b) + cos(a - b))/2.
        n = 32
        g = sp.TorusGrid(n)

        def cosines(*terms):
            coef = np.zeros((n, n), dtype=np.complex128)
            for a, k1, k2 in terms:
                coef[k1, k2] += 0.5 * a * n**2
                coef[-k1, -k2] += 0.5 * a * n**2
            return sp.SpectralField(g, coef)

        f = cosines((1.0, 1, 0), (9e-14, 9, 0))
        assert sp.active_band(f) == 1
        P = sp.product(f, cosines((1.0, 0, 1)))
        expect = cosines((0.5, 1, 1), (0.5, 1, -1), (4.5e-14, 9, 1), (4.5e-14, 9, -1)).coef
        assert P.grid is g
        assert np.max(np.abs(P.coef - expect)) <= 1e-15 * np.max(np.abs(expect))

    @pytest.mark.parametrize("bands", [(3,), (3, 4), (7, 8), (8, 8), (5, 5, 6), (15, 15), (15, 15, 2)])
    def test_matches_the_four_times_grid(self, bands):
        # The reference transforms the product of the 4n-grid samples,
        # alias-free for B <= 2n - 1; on the product's m-grid its modes
        # carry (m / 4n)^2 times the coefficient.
        n = 32
        g = sp.TorusGrid(n)
        fields = [_band_field(g, b, 10 + seed) for seed, b in enumerate(bands)]
        fields.append(oracles.partial_derivative(fields[0], 1))
        mean = fields[-1].coef.copy()
        mean[0, 0] = 0.7 * n**2
        fields.append(sp.SpectralField(g, mean))
        P = sp.product(*fields)
        values = np.prod([sp.oversampled_values(F, 4) for F in fields], axis=0)
        ref = sp.forward(sp.RealField(sp.TorusGrid(4 * n), values))
        m = P.grid.n
        k = P.grid.k.astype(int)
        restricted = ref.coef[np.ix_(k % (4 * n), k % (4 * n))] * (m / (4 * n)) ** 2
        scale = np.max(np.abs(restricted))
        assert np.max(np.abs(P.coef - restricted)) <= 1e-14 * scale
        band = sum(oracles.band(F) for F in fields)
        assert m // 2 - 1 >= band > m // 4 - 1 or m == n
        outside = np.maximum(np.abs(P.grid.k[:, None]), np.abs(P.grid.k)) > band
        assert not P.coef[outside].any()

    def test_a_field_given_twice_is_sampled_once(self, monkeypatch):
        g = sp.TorusGrid(32)
        f, h = _band_field(g, 5, 1), _band_field(g, 5, 2)
        calls = []
        real = sp.oversampled_values
        monkeypatch.setattr(sp, "oversampled_values", lambda F, k: calls.append(F) or real(F, k))
        sp.product(f, h, f, f)
        assert calls == [f, h]

    def test_nyquist_content_rejected(self):
        g = sp.TorusGrid(32)
        coef = np.zeros((32, 32), dtype=np.complex128)
        coef[16, 0] = 1.0
        with pytest.raises(ValueError, match="Nyquist"):
            sp.product(sp.SpectralField(g, coef), _band_field(g, 3, 0))


class TestSum:
    """Fields add and subtract on one grid only
    (`TestTorusGrid::test_grid_mismatch_rejected`)."""

    def test_sum_and_difference_on_one_grid(self):
        g = sp.TorusGrid(32)
        F, G = _band_field(g, 15, 1), _band_field(g, 9, 2)
        assert (F + G).grid is g
        assert np.array_equal((F + G).coef, F.coef + G.coef)
        assert np.array_equal((F - G).coef, F.coef - G.coef)
        assert not (F - F).coef.any()


class TestActiveBand:
    @staticmethod
    def brute_force(F):
        comp = np.maximum(np.abs(F.grid.k[:, None]), np.abs(F.grid.k))
        return int(np.max(comp, where=sp.active_modes(F), initial=0))

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_matches_brute_force(self, n):
        g = sp.TorusGrid(n)
        rng = np.random.default_rng(n)
        fields = [sp.random_band_field(g, rng, band=b) for b in (1, 2, n // 3, n // 2 - 1)]
        fields.append(sp.SpectralField.zeros(g))
        for k1, k2 in ((0, -3), (-3, 0), (-n // 2, 1), (2, -n // 2), (-1, -1), (-n // 4, 3)):
            coef = np.zeros((n, n), dtype=np.complex128)
            coef[k1, k2] = 1.0
            fields.append(sp.SpectralField(g, coef))
        for F in fields:
            assert sp.active_band(F) == self.brute_force(F)
        assert sp.active_band(fields[-1]) == max(n // 4, 3)

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_support_band_matches_brute_force(self, n):
        # `_support` reads the half spectrum of a Hermitian field.
        g = sp.TorusGrid(n)
        rng = np.random.default_rng(n)
        fields = [sp.random_band_field(g, rng, band=b) for b in (1, 2, n // 3, n // 2 - 1)]
        fields.append(sp.SpectralField.zeros(g))
        for k1, k2 in ((0, -3), (-3, 0), (-n // 2, 1), (2, -n // 2), (-1, -1), (-n // 4, 3)):
            coef = np.zeros((n, n), dtype=np.complex128)
            coef[k1, k2] = coef[-k1, -k2] = 1e-300
            fields.append(sp.SpectralField(g, coef))
        for F in fields:
            assert sp._support(F)[1] == oracles.band(F)

    def test_support_counts_every_nonzero_coefficient(self, grid64):
        # A spectrum made by `forward` carries round-off in every mode:
        # its active band is the field's, its exact band is full.
        f = sp.random_band_field(grid64, np.random.default_rng(7), band=8)
        round_trip = sp.forward(oracles.inverse(f))
        assert sp.active_band(round_trip) == sp._support(f)[1] == 8
        assert sp._support(round_trip)[1] == oracles.band(round_trip) == 32

    def test_a_nonzero_spectrum_with_a_zero_half_spectrum_is_refused(self):
        # coef[0, -3] alone: no Hermitian field, and every sampler reads
        # the half spectrum alone, which would sample it as zero.
        g = sp.TorusGrid(32)
        coef = np.zeros((32, 32), dtype=np.complex128)
        coef[0, -3] = 32**2
        F = sp.SpectralField(g, coef)
        for p in (4, np.inf):
            with pytest.raises(ValueError, match="half spectrum is zero"):
                sp.lp_norm(F, p)
        with pytest.raises(ValueError, match="half spectrum is zero"):
            sp.product(F, _band_field(g, 3, 0))


def _names(node):
    return {getattr(node, field, None) for field in ("attr", "id", "name")}


def _scopes_where(tree, hit):
    """Qualified names of the scopes holding a node for which hit(node)."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.append(".".join(scope) or "<module>")
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            walk(child, inner)

    walk(tree, ())
    return found


def _package_scopes_where(hit):
    """{scope: [module file names]} over the package's modules."""
    scopes = {}
    for path in sorted(Path(sp.__file__).parent.glob("*.py")):
        for scope in _scopes_where(ast.parse(path.read_text()), hit):
            scopes.setdefault(scope, []).append(path.name)
    return scopes


def test_only_torus_grid_builds_the_lattice():
    """The wavenumber lattice has one owner; everything else reads the grid.
    fftfreq counts as an attribute (np.fft.fftfreq), a bare name, or an
    imported name."""
    builders = _package_scopes_where(lambda node: "fftfreq" in _names(node))
    assert builders == {"TorusGrid.__new__": ["spectral.py"]}


def test_the_lattice_is_one_vector_and_ksq():
    """Every multiplier broadcasts `k` (or its Nyquist-free twin `kd`):
    the package reads no other lattice coordinate array of the grid and
    no per-block accessor of the partition, and `ksq` is the one lattice
    array the grid caches, also after a step, a record and a log
    inequality have run on it."""
    gone = {"k1", "k2", "kd1", "kd2", "kmag", "inv_ksq", "dealias_mask", "multiplier", "resolved"}
    assert _package_scopes_where(lambda node: isinstance(node, ast.Attribute)
                                 and node.attr in gone) == {}
    tree = ast.parse(Path(sp.__file__).read_text())
    (grid_class,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TorusGrid"]
    cached = [
        node.name for node in grid_class.body
        if isinstance(node, ast.FunctionDef)
        and any("cached_property" in _names(d) for d in node.decorator_list)
    ]
    assert cached == ["ksq"]

    g = sp.TorusGrid(64)
    config = dyn.SolverConfig(alpha=1.0, beta=1.0, nu=0.05, eta=0.05, n=64, dt=1e-3)
    state = dyn.step(dyn.make_initial(g, "random-band", seed=0, band=8), config)
    dg.compute_record(state, config)
    lp.log_inequality_ratio(state.w, 3.0)
    assert [name for name, v in vars(g).items() if np.ndim(v) == 2] == ["ksq"]


def test_diagnostics_build_no_fine_grid():
    """The inequality diagnostics take their products from
    `spectral.product`: `diagnostics` constructs no grid, and
    `littlewood_paley` only in `bony_decompose`, whose parts live on the
    2n grid."""
    grids = _package_scopes_where(
        lambda node: isinstance(node, ast.Call) and "TorusGrid" in _names(node.func)
    )
    assert [scope for scope, names in grids.items() if "diagnostics.py" in names] == []
    assert [scope for scope, names in grids.items() if "littlewood_paley.py" in names] == [
        "bony_decompose"
    ]
    assert "product" in grids
    assert _package_scopes_where(lambda node: "_oversample_factor_for" in _names(node)) == {}


def test_checks_alone_read_the_active_spectrum():
    """Grids read the exact support (`_support`); only input checks read
    the active threshold: the Nyquist check of `_occupied_columns` and
    `bernstein_ratio`'s support test."""
    readers = _package_scopes_where(
        lambda node: isinstance(node, (ast.Name, ast.Attribute))
        and _names(node) & {"active_band", "active_modes"}
    )
    assert {scope: set(names) for scope, names in readers.items()} == {
        "active_band": {"spectral.py"},
        "_occupied_columns": {"spectral.py"},
        "bernstein_ratio": {"littlewood_paley.py"},
    }


def _named_outside_spectral(name):
    """{scope: [module file names]} of the scopes outside spectral.py that
    name `name`."""
    found = _package_scopes_where(
        lambda node: isinstance(node, (ast.Name, ast.Attribute)) and name in _names(node)
    )
    found = {scope: [f for f in files if f != "spectral.py"] for scope, files in found.items()}
    return {scope: files for scope, files in found.items() if files}


def test_one_parseval_sum():
    """Every L^2 norm is `spectral.lambda_norm_sq` or its root
    `lambda_norm`: the plain sums are test oracles, no scope of the
    package defines or names them or `sobolev_norm`, the |xi|^(2s) weight
    is built outside `spectral` only for the integrating factors, the
    inverse Laplacian is read nowhere outside it, and the one scale rule,
    the binary order of a field's largest mode, is read in
    `_binary_order` alone.  A Parseval sum carries the n^-4 of the
    normalization, which only `lambda_norm_sq` writes out."""
    for name in ("l2_norm_sq", "l2_norm", "weighted_l2_norm_sq", "sobolev_norm"):
        assert _package_scopes_where(lambda node: name in _names(node)) == {}
    assert _package_scopes_where(
        lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant) and node.right.value == 4
    ) == {"lambda_norm_sq": ["spectral.py"]}
    assert _named_outside_spectral("symbol_power") == {"_integrating_factors": ["dynamics.py"]}
    assert _named_outside_spectral("inv_ksq") == {}
    assert _package_scopes_where(
        lambda node: isinstance(node, ast.Call) and "frexp" in _names(node.func)
    ) == {"_binary_order": ["spectral.py"]}
    assert not hasattr(dg, "_curl_sobolev_sq")


def test_velocity_is_read_off_the_vorticity_spectrum():
    """u and grad u have one rule each, read off w's spectrum: no scope of
    the package forms the velocity field or its gradient fields (they are
    test oracles), the stage alone takes the Biot-Savart multipliers, and
    the Calderon-Zygmund ratio samples p = 2 like 4 and 8, with no
    Parseval sum of its own."""
    for name in ("biot_savart", "velocity_gradient"):  # defined or named
        assert _package_scopes_where(lambda node: name in _names(node)) == {}
    assert _package_scopes_where(
        lambda node: isinstance(node, (ast.Name, ast.Attribute))
        and "_biot_savart_symbols" in _names(node)
    ) == {"_half_multipliers": ["dynamics.py"]}
    assert "cz_ratio" not in _package_scopes_where(
        lambda node: _names(node) & {"lambda_norm_sq", "lambda_norm"}
    )


def test_one_zero_mean_rule():
    """Every homogeneous operation refuses a mean through
    `check_zero_mean`; `MHDState` keeps its own exact rule, the state
    invariant.  Those are the package's two MeanModeError raises, the
    retired spellings of the rule are named nowhere, and
    `bernstein_ratio` reads its support off the spectrum, with no option
    to declare it."""
    raises = _package_scopes_where(
        lambda node: isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and "MeanModeError" in _names(node.exc.func)
    )
    assert raises == {"check_zero_mean": ["spectral.py"], "MHDState.__post_init__": ["dynamics.py"]}
    assert _package_scopes_where(
        lambda node: bool(_names(node) & {"is_zero_mean", "_mean_is_zero"})
    ) == {}
    assert list(inspect.signature(lp.bernstein_ratio).parameters) == ["f", "j", "k"]


def test_check_zero_mean_names_the_field_and_allows_round_off():
    g = sp.TorusGrid(32)
    coef = np.zeros((32, 32), dtype=np.complex128)
    coef[1, 2] = coef[-1, -2] = 1.0
    sp.check_zero_mean(zero=sp.SpectralField.zeros(g), f=sp.SpectralField(g, coef.copy()))
    coef[0, 0] = 1e-12
    sp.check_zero_mean(f=sp.SpectralField(g, coef.copy()))
    coef[0, 0] = 2e-12
    with pytest.raises(sp.MeanModeError, match="^g must have zero mean"):
        sp.check_zero_mean(f=sp.SpectralField.zeros(g), g=sp.SpectralField(g, coef))


def _doubles_in_place(node):
    """x *= 2, x <<= 1, x = 2 * x or x = x * 2."""
    def is_const(value, want):
        return isinstance(value, ast.Constant) and value.value == want

    if isinstance(node, ast.AugAssign):
        return (isinstance(node.op, ast.Mult) and is_const(node.value, 2)) or (
            isinstance(node.op, ast.LShift) and is_const(node.value, 1)
        )
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
        value = node.value
        targets = {ast.dump(t) for t in node.targets}
        operands = [ast.dump(value.left), ast.dump(value.right)]
        return isinstance(value.op, ast.Mult) and (
            (is_const(value.left, 2) and operands[1] in targets)
            or (is_const(value.right, 2) and operands[0] in targets)
        )
    return False


def test_one_rule_doubles_a_grid_factor():
    """`_grid_factor` is the one rule for the factor of a sampling grid: no
    other scope of the package doubles a variable in place, and
    `_product_factor`, its predecessor for products, is gone."""
    assert _package_scopes_where(_doubles_in_place) == {"_grid_factor": ["spectral.py"]}
    assert not hasattr(sp, "_product_factor")


@pytest.mark.parametrize(
    "n, nodes, cap, factor",
    [(64, 1, math.inf, 1), (64, 64, math.inf, 1), (64, 65, math.inf, 2), (64, 258, math.inf, 8),
     (64, 258, 4, 4), (64, 258, 2, 2), (64, 0, 4, 1)],
)
def test_grid_factor(n, nodes, cap, factor):
    assert sp._grid_factor(n, nodes, cap) == factor


def test_only_the_reducer_reduces_sampled_blocks():
    """Sup and L^p norms of sampled blocks have one home, `_sampled_norms`:
    only `_fine_arrays` and the row generator of `vorticity_gradient_norms`
    loop over the blocks of `_fine_rows`, no other scope names the power
    sums, and no scope names the block sources and norm helpers that
    `vorticity_gradient_norms` replaced."""
    loops = _package_scopes_where(
        lambda node: isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Call)
        and "_fine_rows" in _names(node.iter.func)
    )
    assert loops == {"_fine_arrays": ["spectral.py"],
                     "vorticity_gradient_norms.rows": ["spectral.py"]}
    powers = _package_scopes_where(
        lambda node: isinstance(node, (ast.Name, ast.Attribute))
        and "power_sums" in _names(node)
    )
    assert {scope.split(".")[0] for scope in powers} == {"_sampled_norms"}
    gone = {"vorticity_gradient_rows", "vorticity_gradient_sups", "_vorticity_gradient_norms",
            "lp_of_power_mean"}
    assert _package_scopes_where(lambda node: bool(_names(node) & gone)) == {}
    assert not any(hasattr(sp, name) for name in gone)


def test_package_holds_only_what_is_called():
    """Every public module-level def or class of the package is used in it or
    named in perfbench/; test oracles live in tests/."""
    trees = [ast.parse(p.read_text()) for p in sorted(Path(sp.__file__).parent.glob("*.py"))]
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    }
    bench = (Path(__file__).parents[1] / "perfbench").glob("*.py")
    used |= set(re.findall(r"\w+", " ".join(p.read_text() for p in bench)))
    uncalled = [
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in used
    ]
    assert uncalled == []


def test_no_two_dimensional_fft_in_the_package():
    """Every transform is a 1D pass through the compact-column functions."""
    banned = {"rfft2", "irfft2", "fft2", "ifft2", "rfftn", "irfftn"}
    used = [
        (path.name, node.attr)
        for path in sorted(Path(sp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in banned
    ]
    assert used == []


def test_only_the_rk_stage_calls_inverse_columns():
    """`_inverse_columns` is the stage's transform; every evaluation on a
    grid goes through `_fine_rows`."""
    callers = [
        path.name
        for path in sorted(Path(sp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_inverse_columns"
    ]
    assert callers == ["dynamics.py"]


class TestSymbolPower:
    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_repeat_call_returns_the_same_read_only_array(self, gamma):
        first = sp.symbol_power(sp.TorusGrid(32), gamma)
        again = sp.symbol_power(sp.TorusGrid(32), gamma)
        assert again is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[1, 1] = 0.0


class TestOwnership:
    """A field takes over a C-contiguous array of its own dtype that owns its
    data and freezes it in place; it copies any other input, which stays
    writeable."""

    KINDS = [(sp.RealField, "values", np.float64), (sp.SpectralField, "coef", np.complex128)]

    @pytest.mark.parametrize("cls, attr, dtype", KINDS)
    def test_a_contiguous_array_of_its_dtype_is_frozen_in_place(self, grid64, cls, attr, dtype):
        arr = np.random.default_rng(0).standard_normal((64, 64)).astype(dtype)
        field = cls(grid64, arr)
        assert getattr(field, attr) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0

    @pytest.mark.parametrize("cls, attr, dtype", KINDS)
    @pytest.mark.parametrize("layout", ["fortran", "strided", "other-dtype", "contiguous-view"])
    def test_any_other_input_is_copied(self, grid64, cls, attr, dtype, layout):
        big = np.random.default_rng(1).standard_normal((64, 128)).astype(dtype)
        source = {
            "fortran": np.asfortranarray(big[:, :64]),
            "strided": big[:, ::2],
            "other-dtype": big[:, :64].astype(np.float32 if dtype is np.float64 else np.complex64),
            "contiguous-view": big.reshape(128, 64)[64:],  # writes to `source` write to `big`
        }[layout]
        before = source.copy()
        field = cls(grid64, source)
        assert source.flags.writeable
        source[...] = 0.0
        np.testing.assert_array_equal(getattr(field, attr), before)
        assert not getattr(field, attr).flags.writeable
