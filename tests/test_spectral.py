"""Tests for the torus grid, transforms, and spectral operators."""

import ast
import dataclasses
import gc
import pickle
import re
import tracemalloc
import weakref
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


class TestTorusGrid:
    @pytest.mark.parametrize("n", [7, 12, 4, 0, 48])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            sp.TorusGrid(n)

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_wavenumber_lattice_is_bijective(self, n):
        g = sp.TorusGrid(n)
        pairs = set(zip(g.k1.ravel().astype(int), g.k2.ravel().astype(int)))
        assert len(pairs) == n * n
        assert (0, 0) in pairs
        assert g.k1.min() == -n // 2 and g.k1.max() == n // 2 - 1

    def test_grids_with_equal_n_are_interchangeable(self):
        assert sp.TorusGrid(16) == sp.TorusGrid(16)
        assert sp.TorusGrid(16) != sp.TorusGrid(32)

    def test_one_live_grid_per_n(self):
        held = sp.TorusGrid(64)
        assert sp.TorusGrid(64) is held
        assert pickle.loads(pickle.dumps(held)) is held

    def test_caches_keep_no_grid_alive(self):
        gc.collect()  # garbage of earlier tests may still hold a grid
        g = sp.TorusGrid(16)
        sp.symbol_power(g, 0.35)
        lp.build_partition(g)
        ref = weakref.ref(g)
        del g
        assert ref() is None

    def test_config_builds_no_grid(self):
        gc.collect()
        assert 256 not in sp.TorusGrid._live
        dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=256)
        assert 256 not in sp.TorusGrid._live
        with pytest.raises(ValueError, match="power of two"):
            dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=96)

    def test_grid_mismatch_rejected(self, grid64):
        other = sp.TorusGrid(32)
        u = sp.SpectralField.zeros(grid64)
        v = sp.SpectralField.zeros(other)
        with pytest.raises(sp.GridMismatchError):
            next(sp.oversampled_rows((u, v)))


class TestTransform:
    def test_constant_field_is_pure_dc(self, grid64):
        F = sp.forward(sp.RealField(grid64, np.ones((64, 64))))
        coef = F.coef.copy()
        assert coef[0, 0] == pytest.approx(64**2)
        coef[0, 0] = 0.0
        assert np.max(np.abs(coef)) < 1e-10

    def test_single_mode_sine(self, grid64):
        F = sp.forward(sp.RealField.from_function(grid64, lambda x1, x2: np.sin(x1)))
        mags = np.abs(F.coef)
        assert np.count_nonzero(mags > 1e-9) == 2
        assert F.coef[1, 0] == pytest.approx(-0.5j * 64**2)
        assert F.coef[-1, 0] == pytest.approx(0.5j * 64**2)

    def test_round_trip_random_field(self, grid64):
        rng = np.random.default_rng(11)
        f = sp.RealField(grid64, rng.standard_normal((64, 64)))
        back = sp.inverse(sp.forward(f))
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
        rhs = sp.l2_norm_sq(sp.forward(f))
        assert abs(lhs - rhs) / lhs < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 16, 32]))
    def test_spectral_round_trip(self, seed, n):
        g = sp.TorusGrid(n)
        F = sp.forward(sp.RealField(g, np.random.default_rng(seed).standard_normal((n, n))))
        again = sp.forward(sp.inverse(F))
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
        F = sp.forward(sp.RealField.from_function(grid64, lambda x1, x2: np.sin(x1)))
        out = sp.fractional_laplacian(F, 1.0)
        assert np.max(np.abs(out.coef - F.coef)) / 64**2 < 1e-13

    def test_half_power_gives_mode_magnitude(self, grid64):
        F = sp.forward(sp.RealField.from_function(grid64, lambda x1, x2: np.sin(2 * x1)))
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
        F = sp.forward(sp.RealField.from_function(grid64, lambda x1, x2: np.sin(x1)))
        d = sp.inverse(sp.partial_derivative(F, 1))
        x1, _ = grid64.coordinates()
        assert np.max(np.abs(d.values - np.cos(x1))) < 1e-12

    def test_d2_of_sin_x1_vanishes(self, grid64):
        F = sp.forward(sp.RealField.from_function(grid64, lambda x1, x2: np.sin(x1)))
        d = sp.inverse(sp.partial_derivative(F, 2))
        assert np.max(np.abs(d.values)) < 1e-12

    def test_bad_axis_rejected(self, grid64):
        with pytest.raises(ValueError):
            sp.partial_derivative(sp.SpectralField.zeros(grid64), 3)


class TestBiotSavart:
    def test_product_mode_closed_form(self, grid64):
        w = sp.forward(
            sp.RealField.from_function(grid64, lambda x1, x2: np.sin(x1) * np.sin(x2))
        )
        u1, u2 = sp.biot_savart(w)
        x1, x2 = grid64.coordinates()
        assert np.max(np.abs(sp.inverse(u1).values - 0.5 * np.sin(x1) * np.cos(x2))) < 1e-12
        assert np.max(np.abs(sp.inverse(u2).values + 0.5 * np.cos(x1) * np.sin(x2))) < 1e-12

    def test_cos_two_x1_closed_form(self, grid64):
        w = sp.forward(sp.RealField.from_function(grid64, lambda x1, x2: np.cos(2 * x1)))
        u1, u2 = sp.biot_savart(w)
        x1, _ = grid64.coordinates()
        assert np.max(np.abs(sp.inverse(u1).values)) < 1e-13
        assert np.max(np.abs(sp.inverse(u2).values - 0.5 * np.sin(2 * x1))) < 1e-12

    def test_round_trip_and_divergence_random(self, grid64):
        rng = np.random.default_rng(21)
        w = sp.random_band_field(grid64, rng, band=20)
        u1, u2 = sp.biot_savart(w)
        scale = np.max(np.abs(w.coef))
        assert np.max(np.abs(oracles.curl(u1, u2).coef - w.coef)) / scale < 1e-12
        assert np.max(np.abs(oracles.divergence(u1, u2).coef)) / scale < 1e-13

    def test_gradient_l2_equals_curl_l2(self, grid64):
        rng = np.random.default_rng(22)
        w = sp.random_band_field(grid64, rng, band=20, amplitude=3.0)
        u1, u2 = sp.biot_savart(w)
        grad_sq = sum(
            sp.l2_norm_sq(sp.partial_derivative(c, ax)) for c in (u1, u2) for ax in (1, 2)
        )
        assert abs(grad_sq - sp.l2_norm_sq(w)) / sp.l2_norm_sq(w) < 1e-13

    def test_nonzero_mean_rejected(self, grid64):
        F = sp.forward(sp.RealField(grid64, 1.0 + np.zeros((64, 64))))
        with pytest.raises(sp.MeanModeError):
            sp.biot_savart(F)


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
        x1, _ = grid64.coordinates()
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

        prod = sp.inverse(F).values * sp.inverse(G).values
        coarse = oracles.dealias(sp.forward(sp.RealField(g, prod)))

        def embed(src):
            big = np.zeros((2 * n, 2 * n), dtype=np.complex128)
            idx = np.fft.fftfreq(n, 1.0 / n).astype(int) % (2 * n)
            big[np.ix_(idx, idx)] = src.coef * 4  # coefficient scale (2n/n)^2
            return sp.SpectralField(fine, big)

        fine_prod = sp.forward(
            sp.RealField(fine, sp.inverse(embed(F)).values * sp.inverse(embed(G)).values)
        )
        idx = np.fft.fftfreq(n, 1.0 / n).astype(int) % (2 * n)
        restricted = fine_prod.coef[np.ix_(idx, idx)] / 4
        oracle = oracles.dealias(sp.SpectralField(g, restricted))
        scale = np.max(np.abs(oracle.coef))
        assert np.max(np.abs(coarse.coef - oracle.coef)) / scale < 1e-12


class TestNorms:
    def test_lp_norm_of_sine(self, grid64):
        F = sp.forward(sp.RealField.from_function(grid64, lambda x1, x2: np.sin(x1)))
        assert sp.lp_norm(F, 2) == pytest.approx(np.sqrt(2) * np.pi)
        assert sp.lp_norm(F, np.inf) == pytest.approx(1.0, abs=1e-9)
        # int sin^4 over the square = 3 pi^2 / 2
        assert sp.lp_norm(F, 4) == pytest.approx((1.5 * np.pi**2) ** 0.25, rel=1e-12)

    def test_oversampling_recovers_true_sup(self, grid64):
        # Collocation max of cos(31 x1) with a quarter-cell shift undershoots;
        # the 4x grid must not.
        F = sp.forward(sp.RealField.from_function(grid64, lambda x1, x2: np.cos(16 * x1 + 0.3)))
        coarse_max = np.max(np.abs(sp.inverse(F).values))
        over_max = np.max(np.abs(sp.oversampled_values(F, 4)))
        assert over_max >= coarse_max
        assert over_max == pytest.approx(1.0, abs=1 - np.cos(np.pi / 16))

    def test_random_band_field_determinism(self, grid64):
        a = sp.random_band_field(grid64, np.random.default_rng(77), band=9)
        b = sp.random_band_field(grid64, np.random.default_rng(77), band=9)
        assert np.array_equal(a.coef, b.coef)


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

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    @pytest.mark.parametrize("kind", ["band8", "nyquist-free", "zero"])
    def test_oversampled_values_match_zero_padded_reference(self, n, factor, kind):
        # factor^2 is applied to the coefficients as they are padded, the
        # reference scales the transform's output: the same bits.
        g = sp.TorusGrid(n)
        rng = np.random.default_rng(factor)
        F = {
            "band8": lambda: sp.random_band_field(g, rng, band=8),
            "nyquist-free": lambda: _nyquist_free_field(g, rng),
            "zero": lambda: sp.SpectralField.zeros(g),
        }[kind]()
        assert np.array_equal(sp.oversampled_values(F, factor), _zero_padded_oversample(F, factor))

    def test_gradient_magnitude_uses_the_trace_free_identity(self, grid64):
        # The rows take |grad u|^2 = 2 (d1u1)^2 + (sigma^2 + w^2)/2, sigma =
        # d1u2 + d2u1; the four squared components agree to round-off.
        w = sp.random_band_field(grid64, np.random.default_rng(8), band=20)
        grads = sp.velocity_gradient(w)
        assert np.array_equal(grads[3].coef, -grads[0].coef)
        vals = [sp.oversampled_values(c, 4) for c in grads]
        four = vals[0] ** 2 + vals[1] ** 2 + vals[2] ** 2 + vals[3] ** 2
        rows = [[b.copy() for b in pair] for pair in sp.vorticity_gradient_rows(w)]
        assert np.array_equal(np.concatenate([v for v, _ in rows]), sp.oversampled_values(w, 4))
        grad_sq = np.concatenate([sq for _, sq in rows])
        assert np.max(np.abs(grad_sq - four)) <= 1e-14 * four.max()
        exact = float(np.sqrt(four.max()))
        assert sp.gradient_sup(w) == pytest.approx(exact, rel=1e-14)

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
        blocks = [[v.copy() for v in vals] for vals in sp.oversampled_rows((F, G))]
        for i, H in enumerate((F, G)):
            rows = np.concatenate([b[i] for b in blocks])
            assert np.array_equal(rows, sp.oversampled_values(H, sp.OVERSAMPLE))

    def test_buffers_are_reused(self, grid64):
        F = sp.random_band_field(grid64, np.random.default_rng(3), band=9)
        seen = {id(vals[0]) for vals in sp.oversampled_rows((F,))}
        assert len(seen) == 1

    def test_nyquist_content_rejected(self, grid64):
        coef = np.zeros((64, 64), dtype=np.complex128)
        coef[32, 0] = 1.0
        with pytest.raises(ValueError, match="Nyquist"):
            next(sp.oversampled_rows((sp.SpectralField(grid64, coef),)))

    def test_dealiased_field_skips_the_active_band_scan(self, grid64, monkeypatch):
        # A dealiased field is Nyquist-free by its coefficients alone.
        def scan(F):
            raise AssertionError("active_band scanned a dealiased field")

        f = sp.random_band_field(grid64, np.random.default_rng(6), band=20)
        assert f.dealiased
        monkeypatch.setattr(sp, "active_band", scan)
        sp.oversampled_values(f, 2)
        sp.lp_norm(f, 4)
        sp.vorticity_gradient_sups(f)

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
        assert _traced_peak(lambda: dg.compute_record(state, cfg)) < 16 * 2**20

    def test_oversampled_values_peak_memory(self):
        # The 512 x 512 output takes 2 MB; a fresh zero-tailed half
        # spectrum for the real pass would add 2 MB more.
        F = sp.random_band_field(sp.TorusGrid(256), np.random.default_rng(4), band=8)
        sp.oversampled_values(F, 2)
        assert _traced_peak(lambda: sp.oversampled_values(F, 2)) < 3 * 2**20

    def test_lp_norm_peak_memory(self):
        # One whole 512 x 512 fine-grid array takes 2 MB.
        F = sp.random_band_field(sp.TorusGrid(128), np.random.default_rng(2), band=40)
        sp.lp_norm(F, 4)
        assert _traced_peak(lambda: sp.lp_norm(F, 4)) < 2 * 2**20


def _traced_peak(fn):
    """Peak bytes allocated (tracemalloc) while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestActiveBand:
    @staticmethod
    def brute_force(F):
        comp = np.maximum(np.abs(F.grid.k1), np.abs(F.grid.k2))
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


def _lattice_builders(tree):
    """Qualified names of the scopes that mention fftfreq: as an
    attribute (np.fft.fftfreq), a bare name, or an imported name."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            names = {getattr(child, field, None) for field in ("attr", "id", "name")}
            if "fftfreq" in names:
                found.append(".".join(scope) or "<module>")
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            walk(child, inner)

    walk(tree, ())
    return found


def test_only_torus_grid_builds_the_lattice():
    """The wavenumber lattice has one owner; everything else reads the grid."""
    builders = {}
    for path in sorted(Path(sp.__file__).parent.glob("*.py")):
        for scope in _lattice_builders(ast.parse(path.read_text())):
            builders.setdefault(scope, []).append(path.name)
    assert builders == {"TorusGrid.__new__": ["spectral.py"]}


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
    # Called by nothing yet: the run summary of ROADMAP D4 needs them.
    allowed = {"classify_growth", "hgamma_b_norm"}
    uncalled = [
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in used | allowed
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
