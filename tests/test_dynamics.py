"""Tests for the vorticity-current dynamics, stepping, and checkpoints."""

import collections
import dataclasses
import struct
import tracemalloc
import types

import numpy as np
import pytest

from mhd2d import checkpoint as ckpt
from mhd2d import dynamics as dyn
from mhd2d import spectral as sp

import oracles


def ideal_config(n=64, **kw):
    base = dict(
        alpha=0.0, beta=0.0, nu=0.0, eta=0.0, n=n, dt=1e-3, t_end=0.0,
        output_every=10,
    )
    base.update(kw)
    return dyn.SolverConfig(**base)


def random_state(n=64, band=12, seed=1, amp=1.0):
    g = sp.TorusGrid(n)
    rng = np.random.default_rng(seed)
    w = sp.random_band_field(g, rng, band, amp)
    j = sp.random_band_field(g, rng, band, amp)
    return dyn.MHDState(0.0, w, j)


def band_state(n, kind, seed=11):
    """Random-band (w, j) filling the whole 2/3 band, or Orszag-Tang plus
    such a field at a tenth of the amplitude."""
    g = sp.TorusGrid(n)
    rng = np.random.default_rng(seed)
    w, j = (sp.random_band_field(g, rng, g.dealias_cutoff) for _ in range(2))
    if kind == "random-band":
        return dyn.MHDState(0.0, w, j)
    ot = dyn.make_initial(g, "orszag-tang")
    return dyn.MHDState(
        0.0,
        sp.SpectralField(g, ot.w.coef + 0.1 * w.coef),
        sp.SpectralField(g, ot.j.coef + 0.1 * j.coef),
    )


class TestSolverConfig:
    def test_rejects_negative_exponents_and_coefficients(self):
        with pytest.raises(ValueError):
            ideal_config(beta=-1.0)
        with pytest.raises(ValueError):
            ideal_config(nu=-0.1)

    def test_nu_zero_requires_alpha_zero(self):
        with pytest.raises(ValueError, match="alpha"):
            ideal_config(nu=0.0, alpha=0.3)

    @pytest.mark.parametrize(
        "field, value",
        [("dt", np.nan), ("t_end", np.nan), ("dt", np.inf), ("nu", np.nan), ("eta", np.inf)],
    )
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ideal_config(n=32, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("n", 256.0), ("n", 64.5), ("output_every", 2.5), ("output_every", 2.0)],
    )
    def test_rejects_non_integer_sizes_and_cadences(self, field, value):
        with pytest.raises(ValueError, match="integer"):
            ideal_config(**{field: value})
        if field == "n":
            with pytest.raises(ValueError, match="integer"):
                sp.TorusGrid(value)

    def test_accepts_numpy_integers(self):
        cfg = ideal_config(n=np.int64(32), output_every=np.int32(5))
        assert sp.TorusGrid(cfg.n) is sp.TorusGrid(32)

    def test_band_capped_by_dealias_cutoff(self):
        with pytest.raises(ValueError, match="band"):
            dyn.make_initial(sp.TorusGrid(64), "random-band", band=22)


class TestMHDState:
    def test_mean_mode_must_be_exactly_zero(self):
        g = sp.TorusGrid(16)
        c = np.zeros((16, 16), dtype=np.complex128)
        c[0, 0] = 1e-13
        with pytest.raises(sp.MeanModeError):
            dyn.MHDState(0.0, sp.SpectralField(g, c), sp.SpectralField.zeros(g))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_time_must_be_finite(self, t):
        g = sp.TorusGrid(16)
        with pytest.raises(ValueError, match="time must be finite"):
            dyn.MHDState(t, sp.SpectralField.zeros(g), sp.SpectralField.zeros(g))

    def test_coefficients_outside_dealias_band_rejected(self):
        # A real, Hermitian pair at xi = (0, +-15) = (0, +-(n/2 - 1)); the cutoff is 10.
        g = sp.TorusGrid(32)
        c = np.zeros((32, 32), dtype=np.complex128)
        c[0, 15] = c[0, 32 - 15] = 1.0
        with pytest.raises(sp.DealiasError, match="dealias"):
            dyn.MHDState(0.0, sp.SpectralField.zeros(g), sp.SpectralField(g, c))


class TestVorticityRHS:
    def test_zero_state_gives_zero_tendency(self):
        g = sp.TorusGrid(32)
        state = dyn.MHDState(0.0, sp.SpectralField.zeros(g), sp.SpectralField.zeros(g))
        dw, dj = dyn.vorticity_rhs(state)
        assert np.max(np.abs(dw.coef)) == 0.0
        assert np.max(np.abs(dj.coef)) == 0.0

    def test_parallel_shear_is_steady(self):
        # u = (sin x2, 0), b = 0: the advection of w = -cos x2 vanishes.
        g = sp.TorusGrid(64)
        w = sp.forward(oracles.from_function(g, lambda x1, x2: -np.cos(x2)))
        state = dyn.MHDState(0.0, sp.zero_mean(oracles.dealias(w)), sp.SpectralField.zeros(g))
        dw, dj = dyn.vorticity_rhs(state)
        scale = np.max(np.abs(w.coef))
        assert np.max(np.abs(dw.coef)) / scale < 1e-14
        assert np.max(np.abs(dj.coef)) / scale < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_curl_of_primitive_form(self, seed):
        state = random_state(n=64, band=12, seed=seed)
        cfg = ideal_config(n=64)
        dw, dj = dyn.vorticity_rhs(state)
        dp = oracles.primitive_rhs(oracles.primitive_from_state(state), cfg)
        cw = oracles.curl(dp.u1, dp.u2)
        cj = oracles.curl(dp.b1, dp.b2)
        assert np.max(np.abs(cw.coef - dw.coef)) / np.max(np.abs(dw.coef)) < 1e-10
        assert np.max(np.abs(cj.coef - dj.coef)) / np.max(np.abs(dj.coef)) < 1e-10

    def test_matches_curl_of_primitive_with_dissipation(self):
        state = random_state(n=64, band=12, seed=17)
        cfg = dyn.SolverConfig(alpha=0.7, beta=1.3, nu=0.4, eta=0.9, n=64, dt=1e-3, t_end=0.0)
        dw, dj = dyn.vorticity_rhs(state)
        dp = oracles.primitive_rhs(oracles.primitive_from_state(state), cfg)
        lin_w = cfg.nu * sp.symbol_power(state.grid, cfg.alpha) * state.w.coef
        lin_j = cfg.eta * sp.symbol_power(state.grid, cfg.beta) * state.j.coef
        cw = oracles.curl(dp.u1, dp.u2)
        cj = oracles.curl(dp.b1, dp.b2)
        assert np.max(np.abs(cw.coef + lin_w - dw.coef)) / np.max(np.abs(dw.coef)) < 1e-10
        assert np.max(np.abs(cj.coef + lin_j - dj.coef)) / np.max(np.abs(dj.coef)) < 1e-10

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("kind", ["random-band", "perturbed orszag-tang"])
    def test_matches_the_flux_form(self, n, kind):
        state = band_state(n, kind)
        dw, dj = dyn.vorticity_rhs(state)
        fw, fj = oracles.flux_form_rhs(state)
        assert np.max(np.abs(dw.coef - fw)) <= 1e-13 * np.max(np.abs(fw))
        assert np.max(np.abs(dj.coef - fj)) <= 1e-13 * np.max(np.abs(fj))

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("kind", ["random-band", "perturbed orszag-tang"])
    def test_tendency_conserves_the_ideal_invariants(self, n, kind):
        # With psi = w/|xi|^2 and a = j/|xi|^2, the ideal tendency leaves
        # the energy, the cross helicity and the integral of a^2 unchanged.
        # psi and a below hold the conjugates.
        state = band_state(n, kind)
        dw, dj = (f.coef for f in dyn.vorticity_rhs(state))
        inv = sp.symbol_power(state.grid, -1.0)
        psi, a = (np.conj(f.coef) * inv for f in (state.w, state.j))
        rates = {
            "energy": psi * dw + a * dj,
            "cross helicity": psi * dj + a * dw,
            "mean square potential": a * dj * inv,
        }
        for name, terms in rates.items():
            assert abs(terms.sum().real) <= 1e-13 * np.abs(terms).sum(), name

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_enstrophy_rate_is_the_two_dimensional_cross_term(self, n, seed):
        # In 2D the transport terms of d/dt (||w||^2 + ||j||^2) / 2 cancel,
        # and the ideal tendency leaves only the integral of j Q, with
        # Q = 2 d1b1 (d2u1 + d1u2) - 2 d1u1 (d2b1 + d1b2).  The truncated
        # tendency keeps it exactly: its rate is that of the Galerkin
        # system, and the collocation mean of the cubic j Q is exact, since
        # 3 (n//3) < n.
        state = dyn.make_initial(sp.TorusGrid(n), "random-band", seed, amplitude=2.0,
                                 band=n // 3)
        dw, dj = (f.coef for f in dyn.vorticity_rhs(state))
        terms = np.conj(state.w.coef) * dw + np.conj(state.j.coef) * dj
        scale = sp.TWO_PI**2 / n**4
        d11u, d21u, d12u, _, d11b, d21b, d12b, _ = (
            oracles.inverse(f).values
            for curl in (state.w, state.j) for f in oracles.velocity_gradient(curl)
        )
        q = 2.0 * d11b * (d21u + d12u) - 2.0 * d11u * (d21b + d12b)
        rate = sp.TWO_PI**2 * np.mean(oracles.inverse(state.j).values * q)
        assert abs(scale * terms.sum().real - rate) <= 1e-13 * scale * np.abs(terms).sum()

    def test_fft_budget(self, monkeypatch):
        # 4 inverse + 3 forward transforms per stage, each a complex pass
        # along axis 0 and a real pass along axis 1, with no 2D call; the
        # per-step advective bound reuses the stage-1 velocities, so a step
        # is exactly 4 stages.
        state = random_state(n=32, band=10, seed=6)
        calls = collections.Counter()

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapped

        for name in ("ifft", "irfft", "fft", "rfft", "ifft2", "irfft2", "fft2", "rfft2"):
            monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        dyn.vorticity_rhs(state)
        assert calls == {"ifft": 4, "irfft": 4, "rfft": 3, "fft": 3}
        calls.clear()
        dyn.step(state, ideal_config(n=32))
        assert calls == {"ifft": 16, "irfft": 16, "rfft": 12, "fft": 12}

    def test_primitive_abort_reports_the_state_time(self):
        # Coefficients of about 1e200 overflow the quadratic products.
        state = dataclasses.replace(random_state(n=32, band=10, seed=2, amp=1e200), t=0.3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dyn.SimulationAbort, match="non-finite") as info:
                oracles.primitive_rhs(oracles.primitive_from_state(state), ideal_config(n=32))
        assert info.value.t == 0.3

    def test_primitive_tendency_is_divergence_free(self):
        state = random_state(n=64, band=12, seed=23)
        dp = oracles.primitive_rhs(oracles.primitive_from_state(state), ideal_config(n=64))
        assert dp.divergence_defect() < 1e-13


class TestLerayProjection:
    def test_gradient_field_projects_to_zero(self):
        g = sp.TorusGrid(64)
        phi = sp.random_band_field(g, np.random.default_rng(2), band=12)
        v1 = oracles.partial_derivative(phi, 1)
        v2 = oracles.partial_derivative(phi, 2)
        p1, p2 = oracles.leray_project(v1, v2)
        scale = np.max(np.abs(v1.coef))
        assert np.max(np.abs(p1.coef)) / scale < 1e-13
        assert np.max(np.abs(p2.coef)) / scale < 1e-13

    def test_divergence_free_field_unchanged(self):
        g = sp.TorusGrid(64)
        w = sp.random_band_field(g, np.random.default_rng(3), band=12)
        u1, u2 = oracles.biot_savart(w)
        p1, p2 = oracles.leray_project(u1, u2)
        scale = np.max(np.abs(u1.coef))
        assert np.max(np.abs(p1.coef - u1.coef)) / scale < 1e-13

    def test_idempotent_and_divergence_free(self):
        g = sp.TorusGrid(64)
        rng = np.random.default_rng(4)
        v1 = sp.random_band_field(g, rng, band=12)
        v2 = sp.random_band_field(g, rng, band=12)
        p1, p2 = oracles.leray_project(v1, v2)
        q1, q2 = oracles.leray_project(p1, p2)
        scale = np.max(np.abs(p1.coef))
        assert np.max(np.abs(q1.coef - p1.coef)) / scale < 1e-13
        assert np.max(np.abs(oracles.divergence(p1, p2).coef)) / scale < 1e-13

    def test_mean_preserved(self):
        g = sp.TorusGrid(16)
        c = np.zeros((16, 16), dtype=np.complex128)
        c[0, 0] = 3.0 * 16**2
        p1, p2 = oracles.leray_project(sp.SpectralField(g, c), sp.SpectralField.zeros(g))
        assert p1.coef[0, 0] == 3.0 * 16**2


class TestIntegratingFactors:
    def test_repeat_call_returns_the_same_two_read_only_arrays(self):
        first = dyn._integrating_factors(sp.TorusGrid(32), 1e-3, 0.05, 0.3, 0.05, 1.4)
        again = dyn._integrating_factors(sp.TorusGrid(32), 1e-3, 0.05, 0.3, 0.05, 1.4)
        assert len(first) == 2
        for a, b in zip(first, again):
            assert b is a
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 1, 1] = 0.0


class TestStep:
    def test_zero_state_stays_zero(self):
        g = sp.TorusGrid(32)
        state = dyn.MHDState(0.0, sp.SpectralField.zeros(g), sp.SpectralField.zeros(g))
        out = dyn.step(state, ideal_config(n=32, dt=0.01))
        assert out.t == pytest.approx(0.01)
        assert np.max(np.abs(out.w.coef)) == 0.0

    def test_pure_diffusion_single_mode_is_exact(self):
        # Frozen u, single-mode j with |xi| = 2, eta = 1, beta = 1.
        g = sp.TorusGrid(64)
        jc = np.zeros((64, 64), dtype=np.complex128)
        jc[2, 0] = jc[-2, 0] = 0.5 * 64**2
        state = dyn.MHDState(0.0, sp.SpectralField.zeros(g), sp.SpectralField(g, jc, True))
        cfg = dyn.SolverConfig(alpha=0.0, beta=1.0, nu=0.0, eta=1.0, n=64, dt=0.01, t_end=0.0)
        out = dyn.step(state, cfg)
        assert out.j.coef[2, 0] == 0.5 * 64**2 * np.exp(-4 * 0.01)
        assert np.max(np.abs(out.w.coef)) == 0.0

    def test_fourth_order_self_convergence(self):
        def final(dt):
            cfg = dyn.SolverConfig(
                alpha=1.0, beta=1.0, nu=0.02, eta=0.02, n=64, dt=dt, t_end=0.1,
                output_every=10**9,
            )
            state = dyn.make_initial(sp.TorusGrid(64), "random-band", seed=9, amplitude=2.0)
            for state, _ in dyn.run(cfg, state):
                pass
            return state

        s1, s2, s3 = final(4e-3), final(2e-3), final(1e-3)
        e1 = np.max(np.abs(s1.w.coef - s2.w.coef))
        e2 = np.max(np.abs(s2.w.coef - s3.w.coef))
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_stages_run_at_their_own_times(self, monkeypatch):
        state = dataclasses.replace(random_state(n=32, band=10), t=0.3)
        h = 0.01
        times = []
        real = dyn._nonlinear_half

        def spy(grid, wj, t, *args):
            times.append(t)
            return real(grid, wj, t, *args)

        monkeypatch.setattr(dyn, "_nonlinear_half", spy)
        dyn.step(state, ideal_config(n=32), h)
        assert times == [0.3, 0.3 + h / 2, 0.3 + h / 2, 0.3 + h]

    def test_combinations_follow_the_formula_bit_for_bit(self, monkeypatch):
        # Each stage input and the update must equal its IF-RK4 expression,
        # with the products grouped as written here.
        cfg = ideal_config(n=32, nu=0.01, alpha=1.0, eta=0.02, beta=1.5)
        state = random_state(n=32, band=10, seed=6)
        h = cfg.dt
        seen = []
        real = dyn._nonlinear_half

        def spy(grid, wj, *args):
            k = real(grid, wj, *args)
            seen.append((wj.copy(), k.copy()))
            return k

        monkeypatch.setattr(dyn, "_nonlinear_half", spy)
        out = dyn.step(state, cfg)
        eh, ef = dyn._integrating_factors(state.grid, h, cfg.nu, cfg.alpha, cfg.eta, cfg.beta)
        (wj, k1), (x2, k2), (x3, k3), (x4, k4) = seen
        assert np.array_equal(wj, dyn._pair(state))
        assert np.array_equal(x2, eh * (wj + 0.5 * h * k1))
        assert np.array_equal(x3, eh * wj + 0.5 * h * k2)
        assert np.array_equal(x4, ef * wj + h * eh * k3)
        new = ef * wj + (h / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)
        assert np.array_equal(dyn._pair(out), new)

    def test_the_workspace_does_not_outlive_its_step(self):
        # The per-grid multiplier caches outlive every step by design, so they
        # are filled first.  A step then keeps only its new state, and its
        # scratch (6 n x n real arrays: u1, u2, b1, b2, a product and a
        # temporary; and a half spectrum) stays bounded.
        n = 256
        cfg = ideal_config(n=n, eta=0.05, beta=1.75)
        state = random_state(n=n, band=12, seed=4)
        dyn._half_multipliers(state.grid)
        dyn._integrating_factors(state.grid, cfg.dt, cfg.nu, cfg.alpha, cfg.eta, cfg.beta)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = dyn.step(state, cfg)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before <= 1.1 * (out.w.coef.nbytes + out.j.coef.nbytes)
        assert peak < 16e6

    @pytest.mark.parametrize("dt", [-1e-3, 0.0, np.nan, np.inf, -np.inf])
    def test_rejects_a_bad_dt_override(self, dt):
        state = random_state(n=32, band=10)
        dyn._integrating_factors.cache_clear()
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            dyn.step(state, ideal_config(n=32), dt)
        assert dyn._integrating_factors.cache_info().currsize == 0

    def test_advective_bound_checked_every_step(self):
        state = dataclasses.replace(random_state(n=32, band=10, seed=3, amp=5.0), t=0.7)
        bound = dyn.advective_dt_bound(state)
        cfg = ideal_config(n=32)
        with pytest.raises(dyn.SimulationAbort) as info:
            dyn.step(state, cfg, np.nextafter(bound, np.inf))
        assert "step bound" in info.value.reason
        assert info.value.state is state
        assert info.value.t == state.t
        out = dyn.step(state, cfg, np.nextafter(bound, 0.0))
        assert out.t > state.t

    def test_a_non_finite_update_aborts_with_the_input(self, monkeypatch):
        # Tendencies of +-1.5e308 are finite, so every stage passes, but
        # k2 + k3 in the update overflows.
        state = dataclasses.replace(random_state(n=32, band=10), t=0.3)

        def huge(grid, wj, *args):
            out = np.full_like(wj, 1.5e308)
            out[..., 1::2] *= -1.0
            return out

        monkeypatch.setattr(dyn, "_nonlinear_half", huge)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dyn.SimulationAbort, match="non-finite value in the update") as info:
                dyn.step(state, ideal_config(n=32))
        assert info.value.state is state
        assert info.value.t == 0.3

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_an_abort_in_any_stage_carries_the_input(self, monkeypatch, k):
        state = dataclasses.replace(random_state(n=32, band=10), t=0.3)
        h = 0.01
        calls = []
        real = dyn._nonlinear_half

        def spy(grid, wj, t, *args):
            calls.append(t)
            if len(calls) == k:
                raise dyn.SimulationAbort(t, "stage abort")
            return real(grid, wj, t, *args)

        monkeypatch.setattr(dyn, "_nonlinear_half", spy)
        with pytest.raises(dyn.SimulationAbort, match="stage abort") as info:
            dyn.step(state, ideal_config(n=32), h)
        assert info.value.state is state
        assert info.value.t == [0.3, 0.3 + h / 2, 0.3 + h / 2, 0.3 + h][k - 1]

    def test_rejects_a_state_of_another_grid(self):
        with pytest.raises(sp.GridMismatchError, match="state grid n=32 != config n=64"):
            dyn.step(random_state(n=32, band=10), ideal_config(n=64))

    def test_tenfold_growth_in_one_step_aborts_with_the_input(self, monkeypatch):
        # Tendencies of 1e5 times the stage input stay finite, dealiased and
        # zero-mean, but the update grows the vorticity far beyond 10x.
        state = dataclasses.replace(random_state(n=32, band=10), t=0.2)
        monkeypatch.setattr(dyn, "_nonlinear_half", lambda grid, wj, *args: 1e5 * wj)
        with pytest.raises(dyn.SimulationAbort, match="grew more than 10x") as info:
            dyn.step(state, ideal_config(n=32))
        assert info.value.state is state
        assert info.value.t == 0.2

    def test_a_non_finite_product_aborts(self):
        # Velocities of about 1e160 are finite; their products overflow.
        state = random_state(n=32, band=10)
        huge = dyn.MHDState(
            0.0, *(sp.SpectralField(f.grid, 1e160 * f.coef) for f in (state.w, state.j))
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dyn.SimulationAbort, match="non-finite value in a nonlinear"):
                dyn.vorticity_rhs(huge)

    def test_blowup_raises_simulation_abort(self):
        state = random_state(n=32, band=10, seed=5, amp=300.0)
        cfg = ideal_config(n=32, dt=0.5)
        with pytest.raises(dyn.SimulationAbort):
            s = state
            for _ in range(40):
                s = dyn.step(s, cfg)


class TestRun:
    def test_rejects_an_initial_state_of_another_grid(self):
        with pytest.raises(sp.GridMismatchError, match="initial state n=32 != config n=64"):
            next(dyn.run(ideal_config(n=64), random_state(n=32, band=10)))

    def test_t_end_zero_emits_only_initial_record(self):
        cfg = ideal_config(t_end=0.0)
        out = list(dyn.run(cfg, dyn.make_initial(sp.TorusGrid(64), "random-band")))
        assert len(out) == 1
        assert out[0][1].t == 0.0

    def test_cadence_and_final_sample(self):
        cfg = ideal_config(t_end=0.025, dt=1e-3, output_every=10)
        recs = [r for _, r in dyn.run(cfg, dyn.make_initial(sp.TorusGrid(64), "random-band"))]
        assert [round(r.t, 6) for r in recs] == [0.0, 0.01, 0.02, 0.025]

    def test_deterministic_given_config_and_seed(self):
        cfg = ideal_config(t_end=0.02, dt=1e-3)
        a = [s for s, _ in dyn.run(cfg, dyn.make_initial(sp.TorusGrid(64), "random-band", seed=33))]
        b = [s for s, _ in dyn.run(cfg, dyn.make_initial(sp.TorusGrid(64), "random-band", seed=33))]
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.w.coef, sb.w.coef)
            assert np.array_equal(sa.j.coef, sb.j.coef)

    def test_mean_modes_stay_exactly_zero(self):
        cfg = ideal_config(t_end=0.05, dt=1e-3)
        init = dyn.make_initial(sp.TorusGrid(64), "random-band", seed=8, amplitude=2.0)
        for state, _ in dyn.run(cfg, init):
            assert state.w.coef[0, 0] == 0.0
            assert state.j.coef[0, 0] == 0.0

    def test_hermitian_symmetry_maintained(self):
        cfg = ideal_config(t_end=0.02, dt=1e-3)
        init = dyn.make_initial(sp.TorusGrid(64), "random-band", seed=8, amplitude=2.0)
        for state, _ in dyn.run(cfg, init):
            assert state.w.hermitian_defect() == 0.0

    def test_cfl_violation_aborts_with_state(self):
        cfg = ideal_config(t_end=1.0, dt=0.5)
        init = dyn.make_initial(sp.TorusGrid(64), "random-band", seed=2, amplitude=5.0)
        with pytest.raises(dyn.SimulationAbort) as info:
            list(dyn.run(cfg, init))
        assert info.value.state is not None
        assert "step bound" in info.value.reason

    def test_ideal_energy_conserved(self):
        cfg = ideal_config(t_end=0.5, dt=2e-3, output_every=50)
        init = dyn.make_initial(sp.TorusGrid(64), "random-band", seed=4, amplitude=1.0)
        recs = [r for _, r in dyn.run(cfg, init)]
        e = [r.energy_u + r.energy_b for r in recs]
        assert max(abs(x - e[0]) for x in e) / e[0] < 1e-10


class TestMakeInitial:
    def test_zero_amplitude_gives_zero_state(self):
        g = sp.TorusGrid(32)
        st = dyn.make_initial(g, "random-band", seed=1, amplitude=0.0, band=5)
        assert np.max(np.abs(st.w.coef)) == 0.0

    def test_orszag_tang_norms_match_closed_form(self):
        g = sp.TorusGrid(64)
        a = 0.8
        st = dyn.make_initial(g, "orszag-tang", amplitude=a)
        # w = a(cos x1 + cos x2): ||w||^2 = 4 pi^2 a^2
        assert oracles.l2_norm(st.w) == pytest.approx(2 * np.pi * a, rel=1e-13)
        # j = a(2cos 2x1 + cos x2): ||j||^2 = 10 pi^2 a^2
        assert oracles.l2_norm(st.j) == pytest.approx(np.pi * np.sqrt(10) * a, rel=1e-13)
        x1, x2 = oracles.coordinates(g)
        w_phys = oracles.inverse(st.w).values
        assert np.max(np.abs(w_phys - a * (np.cos(x1) + np.cos(x2)))) < 1e-12

    def test_same_seed_is_bit_identical(self):
        g = sp.TorusGrid(32)
        a = dyn.make_initial(g, "random-band", seed=7, band=5)
        b = dyn.make_initial(g, "random-band", seed=7, band=5)
        assert np.array_equal(a.w.coef, b.w.coef)
        assert np.array_equal(a.j.coef, b.j.coef)

    @pytest.mark.parametrize("n", [8, 16])
    def test_orszag_tang_ignores_band_on_small_grids(self, n):
        # The default band 8 exceeds the cutoffs 2 and 5; Orszag-Tang does not use it.
        st = dyn.make_initial(sp.TorusGrid(n), "orszag-tang")
        assert isinstance(st, dyn.MHDState)
        assert st.w.coef[1, 0] == 0.5 * n**2
        assert st.j.coef[2, 0] == n**2

    def test_band_beyond_cutoff_rejected(self):
        g = sp.TorusGrid(32)
        with pytest.raises(ValueError, match="cutoff"):
            dyn.make_initial(g, "random-band", band=11)

    @pytest.mark.parametrize("kind", dyn.INIT_KINDS)
    def test_negative_amplitude_rejected(self, kind):
        with pytest.raises(ValueError, match="amplitude"):
            dyn.make_initial(sp.TorusGrid(32), kind, amplitude=-1.0)


class TestRescale:
    def test_lambda_one_is_identity(self):
        state = random_state(n=32, band=5)
        out = oracles.rescale(state, 1, 1.3)
        assert out.t == state.t
        assert np.array_equal(out.w.coef, state.w.coef)

    def test_single_mode_amplitude_law(self):
        # Velocity mode at (1,0) with amplitude a moves to (2,0) with 2a,
        # i.e. the vorticity picks up the factor lambda^(2 gamma) = 4.
        g = sp.TorusGrid(64)
        wc = np.zeros((64, 64), dtype=np.complex128)
        wc[1, 0] = wc[-1, 0] = 64**2
        state = dyn.MHDState(0.25, sp.SpectralField(g, wc, True), sp.SpectralField.zeros(g))
        out = oracles.rescale(state, 2, 1.0)
        assert out.w.coef[2, 0] == 4.0 * 64**2
        assert out.w.coef[1, 0] == 0.0
        assert out.t == 0.25 / 4.0

    def test_band_limited_fields_pass_the_strict_check(self):
        # Nothing lies beyond the kept box |xi| <= 10, so tail_tol = 0 must
        # accept every seed.
        for seed in range(20):
            state = dyn.make_initial(sp.TorusGrid(64), "random-band", seed=seed, band=5)
            oracles.rescale(state, 2, 1.0)

    def test_overflowing_spectrum_rejected(self):
        state = random_state(n=32, band=10)
        with pytest.raises(ValueError, match="resolution"):
            oracles.rescale(state, 2, 1.0)

    def test_two_path_covariance(self):
        # evolve->rescale against rescale->evolve with (dt, t) / lambda^2.
        n, lam = 64, 2
        cfg_a = dyn.SolverConfig(
            alpha=1.0, beta=1.0, nu=1.0, eta=1.0, n=n, dt=2e-3, t_end=0.2,
            output_every=10**9,
        )
        init = dyn.make_initial(sp.TorusGrid(n), "random-band", seed=12, amplitude=1.0, band=5)
        for state_a, _ in dyn.run(cfg_a, init):
            pass
        path_a = oracles.rescale(state_a, lam, 1.0, tail_tol=1e-6)
        cfg_b = dyn.SolverConfig(
            alpha=1.0, beta=1.0, nu=1.0, eta=1.0, n=n, dt=2e-3 / lam**2,
            t_end=0.2 / lam**2, output_every=10**9,
        )
        for state_b, _ in dyn.run(cfg_b, oracles.rescale(init, lam, 1.0)):
            pass
        assert path_a.t == pytest.approx(state_b.t, rel=1e-12)
        for a, b in ((path_a.w, state_b.w), (path_a.j, state_b.j)):
            err = np.max(np.abs(a.coef - b.coef)) / np.max(np.abs(b.coef))
            assert err < 1e-6


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        state = random_state(n=32, band=9, seed=91, amp=1.7)
        cfg = dyn.SolverConfig(alpha=0.3, beta=1.4, nu=0.1, eta=1.0, n=32, dt=1e-3, t_end=0.0)
        path = tmp_path / "state.mhd2"
        ckpt.write_checkpoint(path, state, cfg)
        loaded = ckpt.read_checkpoint(path)
        assert loaded.state.t == state.t
        assert loaded.alpha == cfg.alpha and loaded.eta == cfg.eta
        assert np.array_equal(loaded.state.w.coef, state.w.coef)
        assert np.array_equal(loaded.state.j.coef, state.j.coef)
        # byte-stable on rewrite
        path2 = tmp_path / "state2.mhd2"
        ckpt.write_checkpoint(path2, loaded.state, cfg)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mhd2"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ckpt.CheckpointFormatError):
            ckpt.read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        state = random_state(n=32, band=9)
        cfg = ideal_config(n=32)
        path = tmp_path / "cut.mhd2"
        ckpt.write_checkpoint(path, state, cfg)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ckpt.CheckpointFormatError):
            ckpt.read_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "cut.mhd2"
        path.write_bytes(ckpt.MAGIC + b"\x01\x00\x00\x00")
        with pytest.raises(ckpt.CheckpointFormatError, match="truncated header"):
            ckpt.read_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        def edit(raw):
            raw[4:8] = struct.pack("<I", ckpt.VERSION + 1)
            return raw

        with pytest.raises(ckpt.CheckpointFormatError, match="unsupported format version 2"):
            ckpt.read_checkpoint(self._corrupt(tmp_path, edit))

    def test_non_hermitian_payload_rejected(self, tmp_path):
        # The imaginary part of w's coefficient at xi = (1, 1) alone changes:
        # the field stays finite, zero-mean and dealiased.
        def edit(raw):
            at = ckpt._HEADER.size + (32 + 1) * 16 + 8
            raw[at : at + 8] = struct.pack("<d", 1e6)
            return raw

        with pytest.raises(ckpt.CheckpointFormatError, match="w coefficients are not Hermitian"):
            ckpt.read_checkpoint(self._corrupt(tmp_path, edit))

    def _corrupt(self, tmp_path, edit):
        """Write a valid n=32 checkpoint, let `edit` rewrite its bytes."""
        path = tmp_path / "bad.mhd2"
        ckpt.write_checkpoint(path, random_state(n=32, band=9, seed=4), ideal_config(n=32))
        path.write_bytes(edit(bytearray(path.read_bytes())))
        return path

    def test_bad_grid_size_rejected(self, tmp_path):
        # n = 12 is not a power of two; the payload is cut to match it.
        def edit(raw):
            raw[8:12] = struct.pack("<I", 12)
            return raw[: ckpt._HEADER.size + 2 * 12 * 12 * 16]

        with pytest.raises(ckpt.CheckpointFormatError, match="power of two"):
            ckpt.read_checkpoint(self._corrupt(tmp_path, edit))

    @pytest.mark.parametrize("value, match", [(1.0, "mean"), (float("nan"), "non-finite")])
    def test_bad_mean_mode_rejected(self, tmp_path, value, match):
        def edit(raw):
            raw[ckpt._HEADER.size : ckpt._HEADER.size + 8] = struct.pack("<d", value)
            return raw

        with pytest.raises(ckpt.CheckpointFormatError, match=match):
            ckpt.read_checkpoint(self._corrupt(tmp_path, edit))

    @pytest.mark.parametrize(
        "name, value",
        [("t", np.nan), ("t", np.inf), ("alpha", -1.0), ("beta", np.inf), ("nu", -1.0),
         ("eta", np.nan)],
    )
    def test_bad_header_value_rejected(self, tmp_path, name, value):
        # Header doubles after magic, version and n: t, alpha, beta, nu, eta.
        at = 12 + 8 * ("t", "alpha", "beta", "nu", "eta").index(name)

        def edit(raw):
            raw[at : at + 8] = struct.pack("<d", value)
            return raw

        match = "time" if name == "t" else name
        with pytest.raises(ckpt.CheckpointFormatError, match=match):
            ckpt.read_checkpoint(self._corrupt(tmp_path, edit))

    def test_energy_outside_dealias_band_rejected(self, tmp_path):
        # A real, Hermitian pair at xi = (+-11, 0), just past the n=32 cutoff 10.
        def edit(raw):
            for row in (11, 32 - 11):
                at = ckpt._HEADER.size + row * 32 * 16
                raw[at : at + 8] = struct.pack("<d", 1.0)
            return raw

        with pytest.raises(ckpt.CheckpointFormatError, match="dealias"):
            ckpt.read_checkpoint(self._corrupt(tmp_path, edit))

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path):
        path = tmp_path / "state.mhd2"
        cfg = ideal_config(n=32)
        old = random_state(n=32, band=9, seed=5)
        ckpt.write_checkpoint(path, old, cfg)
        before = path.read_bytes()

        class Interrupted:
            @property
            def coef(self):
                raise RuntimeError("write interrupted")

        # The header and w are written, then reading j raises.
        new = random_state(n=32, band=9, seed=6)
        partial = types.SimpleNamespace(grid=new.grid, t=new.t, w=new.w, j=Interrupted())
        with pytest.raises(RuntimeError, match="write interrupted"):
            ckpt.write_checkpoint(path, partial, cfg)

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.mhd2"]
        assert np.array_equal(ckpt.read_checkpoint(path).state.w.coef, old.w.coef)
