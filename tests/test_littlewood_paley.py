"""Tests for the dyadic decomposition, Besov norms, and paraproducts."""

import numpy as np
import pytest

from mhd2d import littlewood_paley as lp
from mhd2d import spectral as sp

import oracles


@pytest.fixture(scope="module")
def grid():
    return sp.TorusGrid(128)


@pytest.fixture(scope="module")
def part(grid):
    return lp.build_partition(grid)


def band_field(grid, seed=0, band=30, amp=1.0):
    return sp.random_band_field(grid, np.random.default_rng(seed), band, amp)


def partition_residual(part):
    """max over xi != 0 of |sum_j Phi_j(xi) - 1| (Phi vanishes at xi = 0)."""
    return float(np.abs(part.phi.sum(axis=0) - 1.0).ravel()[1:].max())


class TestPartition:
    def test_j_range(self, part, grid):
        assert part.j_max == int(np.ceil(np.log2(grid.n / 2)))

    def test_partition_of_unity_residual(self, part):
        assert partition_residual(part) < 1e-14

    def test_at_most_two_blocks_per_mode(self, part):
        assert (part.phi > 0).sum(axis=0).max() <= 2

    def test_support_inside_dyadic_annulus(self, part, grid):
        kmag = np.sqrt(grid.ksq)
        for j in range(part.j_max + 1):
            active = part.phi[j] > 0
            assert np.all(kmag[active] > 2.0 ** (j - 1))
            assert np.all(kmag[active] < 2.0 ** (j + 1))

    def test_exact_power_mode_belongs_to_one_block(self, part, grid):
        # |xi| = 2^j sits on the closure of two annuli; the bump vanishes
        # at the endpoints so block j takes all of it.
        idx = 8  # |xi| = 8 = 2^3
        assert part.phi[3][idx, 0] == pytest.approx(1.0, abs=1e-14)
        assert part.phi[2][idx, 0] == 0.0
        assert part.phi[4][idx, 0] == 0.0

    @pytest.mark.parametrize("n", [64, 256])
    def test_residual_across_resolutions(self, n):
        p = lp.build_partition(sp.TorusGrid(n))
        assert partition_residual(p) < 1e-14


class TestBlocks:
    def test_homogeneous_reconstruction(self, grid, part):
        f = band_field(grid, seed=5, band=40, amp=2.0)
        total = np.zeros_like(f.coef)
        for j in range(part.j_max + 1):
            total += lp.dyadic_block(f, j).coef
        assert np.max(np.abs(total - f.coef)) / np.max(np.abs(f.coef)) < 1e-12

    def test_a_block_off_the_lattice_is_the_zero_field(self, grid, part):
        f = band_field(grid, seed=12, band=40)
        for j in (-1, part.j_max + 1, part.j_max + 5):
            assert not lp.dyadic_block(f, j).coef.any()

    def test_block_disjointness_exact(self, grid):
        f = band_field(grid, seed=8, band=40)
        for j, k in ((0, 2), (3, 5), (1, 6), (2, 4)):
            twice = lp.dyadic_block(lp.dyadic_block(f, j), k)
            assert np.max(np.abs(twice.coef)) == 0.0

    def test_single_mode_at_power_of_two_reconstructs_from_two_blocks(self, grid):
        coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
        coef[8, 0] = coef[-8, 0] = 0.5 * grid.n**2
        f = sp.SpectralField(grid, coef, True)
        total = lp.dyadic_block(f, 2).coef + lp.dyadic_block(f, 3).coef
        assert np.max(np.abs(total - f.coef)) < 1e-12 * grid.n**2


class TestNorms:
    def test_zero_field(self, grid):
        z = sp.SpectralField.zeros(grid)
        assert lp.besov_norm(z, lp.BesovSpec(0.5, 2, 2)) == 0.0

    def test_besov_22_of_single_mode(self, grid):
        coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
        coef[8, 0] = coef[-8, 0] = 0.5 * grid.n**2  # sin-type mode, |xi| = 8
        f = sp.SpectralField(grid, coef, True)
        s = 1.3
        val = lp.besov_norm(f, lp.BesovSpec(s, 2, 2))
        ref = 2.0 ** (3 * s) * oracles.l2_norm(f)
        assert 2.0 ** (-abs(s)) * ref <= val <= 2.0 ** (abs(s)) * ref

    def test_besov_b022_close_to_l2(self, grid):
        # Two overlapping blocks put the ratio in [1/sqrt(2), 1].
        for seed in range(5):
            f = band_field(grid, seed=seed, band=40)
            ratio = lp.besov_norm(f, lp.BesovSpec(0.0, 2, 2)) / oracles.l2_norm(f)
            assert 1.0 / np.sqrt(2) - 1e-12 <= ratio <= 1.0 + 1e-12

    def test_besov_q_inf(self, grid, part):
        f = band_field(grid, seed=11, band=40)
        spec = lp.BesovSpec(0.4, 2, np.inf)
        val = lp.besov_norm(f, spec)
        terms = [
            2.0 ** (j * 0.4) * oracles.l2_norm(lp.dyadic_block(f, j))
            for j in range(part.j_max + 1)
        ]
        assert val == pytest.approx(max(terms))

    def test_homogeneous_besov_requires_zero_mean(self, grid):
        coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
        coef[0, 0] = grid.n**2
        with pytest.raises(sp.MeanModeError):
            lp.besov_norm(sp.SpectralField(grid, coef), lp.BesovSpec(0.5, 2, 2))

    def test_sobolev_single_mode(self, grid):
        f = sp.zero_mean(sp.forward(oracles.from_function(grid, lambda x1, x2: np.sin(2 * x1))))
        assert sp.lambda_norm(f, 1.5) == pytest.approx(2.0**1.5 * oracles.l2_norm(f))
        assert sp.lambda_norm(f, 0.0) == pytest.approx(oracles.l2_norm(f))

    def test_sobolev_vs_besov_equivalence_envelope(self, grid):
        s = 0.8
        for seed in range(5):
            f = band_field(grid, seed=20 + seed, band=40)
            hs = sp.lambda_norm(f, s)
            bs = lp.besov_norm(f, lp.BesovSpec(s, 2, 2))
            # block overlap and annulus width bound the equivalence constant
            assert bs / hs < 4.0
            assert hs / bs < 4.0


class TestBony:
    def test_frequency_separated_product_is_pure_low_high(self, grid):
        # f in block ~1 (|xi| = 2), g in block ~5 (|xi| = 40): R and T(g,f)
        # vanish because every pairing is >= 3 dyads apart.
        cf = np.zeros((grid.n, grid.n), dtype=np.complex128)
        cf[2, 0] = cf[-2, 0] = 0.5 * grid.n**2
        cg = np.zeros((grid.n, grid.n), dtype=np.complex128)
        cg[0, 40] = cg[0, -40] = 0.5 * grid.n**2
        f = sp.SpectralField(grid, cf, True)
        g = sp.SpectralField(grid, cg, True)
        t_fg, r_fg, t_gf = lp.bony_decompose(f, g)
        direct = sp.oversampled_values(f, 2) * sp.oversampled_values(g, 2)
        assert np.max(np.abs(r_fg.values)) < 1e-12
        assert np.max(np.abs(t_gf.values)) < 1e-12
        assert np.max(np.abs(t_fg.values - direct)) < 1e-12

    def test_equal_single_modes_reconstruct(self, grid):
        c = np.zeros((grid.n, grid.n), dtype=np.complex128)
        c[5, 0] = c[-5, 0] = 0.5 * grid.n**2
        f = sp.SpectralField(grid, c, True)
        t_fg, r_fg, t_gf = lp.bony_decompose(f, f)
        direct = sp.oversampled_values(f, 2) ** 2
        err = np.max(np.abs(t_fg.values + r_fg.values + t_gf.values - direct))
        assert err < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_random_reconstruction(self, grid, seed):
        f = band_field(grid, seed=30 + seed, band=40)
        g = band_field(grid, seed=60 + seed, band=40)
        t_fg, r_fg, t_gf = lp.bony_decompose(f, g)
        direct = sp.oversampled_values(f, 2) * sp.oversampled_values(g, 2)
        num = np.sqrt(np.mean((t_fg.values + r_fg.values + t_gf.values - direct) ** 2))
        den = np.sqrt(np.mean(direct**2))
        assert num / den < 1e-10

    def test_low_high_part_uses_low_pass(self, grid, part):
        # T(f, g) = sum_j S_{j-1} f Delta_j g, with S_{j-1} = sum_{l <= j-2} Delta_l.
        f = band_field(grid, seed=70, band=40)
        g = band_field(grid, seed=71, band=40)
        t_fg, _, _ = lp.bony_decompose(f, g)
        manual = sum(
            sp.oversampled_values(
                sp.SpectralField(grid, part.phi[: max(j - 1, 0)].sum(axis=0) * f.coef), 2
            )
            * sp.oversampled_values(lp.dyadic_block(g, j), 2)
            for j in range(part.j_max + 1)
        )
        assert np.max(np.abs(t_fg.values - manual)) / np.max(np.abs(t_fg.values)) < 1e-13


class TestProductEstimate:
    def test_zero_field_gives_zero(self, grid):
        z = sp.SpectralField.zeros(grid)
        f = band_field(grid, seed=1)
        assert lp.product_estimate_ratio(z, f, 0.5, 0.5) == 0.0

    def test_scale_invariance(self, grid):
        f = band_field(grid, seed=2, band=20)
        g = band_field(grid, seed=3, band=20)
        r1 = lp.product_estimate_ratio(f, g, 0.5, 0.5)
        f10 = sp.SpectralField(grid.__class__(grid.n), 10 * f.coef, True)
        g10 = sp.SpectralField(grid, 10 * g.coef, True)
        assert lp.product_estimate_ratio(f10, g10, 0.5, 0.5) == pytest.approx(r1, rel=1e-12)

    def test_hypothesis_violations_rejected(self, grid):
        f = band_field(grid, seed=4)
        with pytest.raises(ValueError):
            lp.product_estimate_ratio(f, f, 1.0, 0.5)  # sigma1 not < 1
        with pytest.raises(ValueError):
            lp.product_estimate_ratio(f, f, -0.5, 0.3)  # sum not > 0

    def test_finite_on_random_ensemble(self, grid):
        vals = [
            lp.product_estimate_ratio(
                band_field(grid, seed=100 + s, band=20), band_field(grid, seed=200 + s, band=20),
                0.5, 0.5,
            )
            for s in range(10)
        ]
        assert all(np.isfinite(v) and v > 0 for v in vals)


class TestGradientLog:
    def test_single_mode_closed_form(self, grid):
        # w = sin x1: u = (0, -cos x1), grad-sup = 1 = ||w||_inf.
        w = sp.zero_mean(oracles.dealias(sp.forward(
            oracles.from_function(grid, lambda x1, x2: np.sin(x1))
        )))
        rep = lp.log_inequality_ratio(w, 3.0)
        l2_u = np.pi * np.sqrt(2)
        hs_u = np.sqrt(2.0**3.0) * np.pi * np.sqrt(2)
        expected = 1.0 / (l2_u + 1.0 * np.log2(2 + hs_u) + 1.0)
        assert rep.grad_sup == pytest.approx(1.0, rel=1e-6)
        assert rep.ratio == pytest.approx(expected, rel=1e-6)

    def test_amplitude_sweep_stays_bounded(self, grid):
        w = band_field(grid, seed=40, band=20, amp=1.0)
        ratios = []
        for scale in (1.0, 1e3, 1e6):
            ws = sp.SpectralField(grid, scale * w.coef, True)
            ratios.append(lp.log_inequality_ratio(ws, 3.0).ratio)
        assert max(ratios) < 10 * ratios[0]

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_velocity_norms_are_those_of_the_velocity(self, n):
        # ||u||_2 and ||u||_{H^s}, read off Lambda^-1 w, against the sums
        # over the velocity field itself.
        g = sp.TorusGrid(n)
        w = sp.random_band_field(g, np.random.default_rng(n), band=n // 3)
        rep = lp.log_inequality_ratio(w, 3.0)
        u = oracles.biot_savart(w)
        l2_u = np.sqrt(sum(oracles.l2_norm_sq(c) for c in u))
        hs_u = np.sqrt(sum(oracles.weighted_l2_norm_sq(c, (1.0 + g.ksq) ** 3.0) for c in u))
        assert rep.l2_u == pytest.approx(l2_u, rel=1e-14, abs=0.0)
        assert rep.hs_u == pytest.approx(hs_u, rel=1e-14, abs=0.0)

    def test_split_terms_cover_all_blocks(self, grid, part):
        # Each block's gradient sup is read on the grid of its own band.
        w = band_field(grid, seed=41, band=20)
        rep = lp.log_inequality_ratio(w, 3.0)
        total = 0.0
        for j in range(part.j_max + 1):
            block = sp.SpectralField(grid, part.phi[j] * w.coef, True)
            factor = oracles.sampling_factor(block)
            total += np.sqrt(sum(
                sp.oversampled_values(c, factor) ** 2 for c in oracles.velocity_gradient(block)
            ).max())
        assert rep.term_mid + rep.term_high == pytest.approx(total, rel=1e-12)

    def test_requires_s_above_two(self, grid):
        with pytest.raises(ValueError):
            lp.log_inequality_ratio(band_field(grid, seed=1), 2.0)


class TestBernstein:
    def test_single_mode_ratios(self, grid):
        coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
        coef[8, 0] = coef[-8, 0] = 0.5 * grid.n**2
        f = sp.SpectralField(grid, coef, True)
        r = lp.bernstein_ratio(f, 3, 1)
        assert r.l2 == pytest.approx(1.0)
        assert r.linf == pytest.approx(1.0, rel=1e-6)

    def test_k_zero_is_identity(self, grid):
        f = lp.dyadic_block(band_field(grid, seed=50, band=40), 4)
        r = lp.bernstein_ratio(f, 4, 0)
        assert r.l2 == 1.0 and r.linf == 1.0

    def test_diagonal_mode_achieves_component_lower_bound(self, grid):
        coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
        coef[4, 4] = 0.5 * grid.n**2
        coef[-4, -4] = 0.5 * grid.n**2
        f = sp.SpectralField(grid, coef, True)  # |xi| = 4 sqrt(2) in A_2..A_3
        # The ratio is the sup over |gamma| = 1 of ||d^gamma f|| / 2^j, not
        # the full gradient |xi| / 2^j = sqrt(2).  Here ||d_1 f|| = ||d_2 f||
        # = 4 ||f||, so the ratio is 4 / 2^2 = 1.  In 2D max_i |xi_i| >=
        # |xi| / sqrt(2), with equality on the diagonal, so this mode attains
        # the component lower bound |xi| / (sqrt(2) 2^j).
        j = 2
        xi = np.hypot(4.0, 4.0)
        r = lp.bernstein_ratio(f, j, 1, support="annulus")
        assert r.l2 == pytest.approx(xi / (np.sqrt(2) * 2**j), rel=1e-12)
        assert r.linf == pytest.approx(1.0, rel=1e-6)

    def test_support_violation_rejected(self, grid):
        f = band_field(grid, seed=51, band=40)
        with pytest.raises(ValueError, match="support"):
            lp.bernstein_ratio(f, 2, 1, support="annulus")

    @pytest.mark.parametrize("rel, counted", [(1e-14, False), (1e-12, True)])
    def test_active_threshold_shared_with_active_band(self, grid, rel, counted):
        # A tail at |xi| = 40, outside A_3, at rel times the largest
        # coefficient: both functions count it or both ignore it.
        block = lp.dyadic_block(band_field(grid, seed=52, band=40), 3)
        assert sp.active_band(block) < 16
        coef = block.coef.copy()
        coef[40, 0] = coef[-40, 0] = rel * np.max(np.abs(coef))
        f = sp.SpectralField(grid, coef)
        assert (sp.active_band(f) == 40) == counted
        if counted:
            with pytest.raises(ValueError, match="annulus"):
                lp.bernstein_ratio(f, 3, 1, support="annulus")
        else:
            lp.bernstein_ratio(f, 3, 1, support="annulus")

    @pytest.mark.parametrize("k", [1, 2])
    def test_annulus_ensemble_two_sided(self, grid, k):
        for seed in range(20):
            f = lp.dyadic_block(band_field(grid, seed=300 + seed, band=40), 4)
            r = lp.bernstein_ratio(f, 4, k, support="annulus")
            for val in (r.l2, r.linf):
                assert 0.25 <= val <= 4.0

    def test_ball_ensemble_upper_bound(self, grid):
        for seed in range(10):
            f = band_field(grid, seed=400 + seed, band=16)
            r = lp.bernstein_ratio(f, 4, 1, support="ball")
            assert r.l2 <= 1.0 + 1e-12  # components bounded by |xi| <= 2^j


# --- blocks that miss the spectrum ---------------------------------------------


def _single_mode(grid, k):
    coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
    coef[k, 0] = coef[-k, 0] = 0.5 * grid.n**2
    return sp.SpectralField(grid, coef, True)


def _inner_edge_mode(grid):
    # xi = (6, 5): |xi|/4 = 1.95, just inside the outer edge of A_2, where
    # the bump is about 1e-6 of its peak.
    coef = np.zeros((grid.n, grid.n), dtype=np.complex128)
    coef[6, 5] = coef[-6, -5] = 0.5 * grid.n**2
    return sp.SpectralField(grid, coef, True)


def _gapped(grid, seed):
    # Modes with |xi| <= 3 or 20 <= |xi| <= 40: block j = 3 (4 < |xi| < 16)
    # lies inside the gap.
    f = band_field(grid, seed=seed, band=40)
    kmag = np.sqrt(grid.ksq)
    keep = (kmag <= 3) | (kmag >= 20)
    return sp.SpectralField(grid, np.where(keep, f.coef, 0.0), True)


def _fields(grid):
    return {
        "band8": band_field(grid, seed=90, band=8),
        "mode8": _single_mode(grid, 8),
        "edge": _inner_edge_mode(grid),
        "gap": _gapped(grid, 91),
        "zero": sp.SpectralField.zeros(grid),
    }


def _all_blocks(f, part):
    return [lp.dyadic_block(f, j) for j in range(part.j_max + 1)]


def _besov_oracle(f, spec, part):
    terms = np.array([
        2.0 ** (j * spec.s) * sp.lp_norm(b, spec.p) for j, b in enumerate(_all_blocks(f, part))
    ])
    if np.isinf(spec.q):
        return float(terms.max())
    return float((terms**spec.q).sum() ** (1.0 / spec.q))


def _bony_oracle(f, g, part, factor=None):
    """Bony's parts from all blocks, formed on the factor-times finer grid:
    by default the grid `bony_decompose`'s rule picks, n for a band sum
    B <= n/2 - 1 and 2n above; on the n grid each part's spectrum, zeroed
    beyond B, is then sampled on the 2n grid with numpy's 2D transforms."""
    n = f.grid.n
    band = oracles.band(f) + oracles.band(g)
    if factor is None:
        factor = 1 if band <= n // 2 - 1 else 2
    fb, gb = ([sp.oversampled_values(b, factor) for b in _all_blocks(h, part)] for h in (f, g))
    count = len(fb)

    def paraproduct(lows, highs):
        acc = np.zeros_like(lows[0])
        running = np.zeros_like(lows[0])
        for idx in range(count):
            if idx >= 2:
                running += lows[idx - 2]
            acc += running * highs[idx]
        return acc

    r_fg = np.zeros_like(fb[0])
    for a in range(count):
        for b in (a - 1, a, a + 1):
            if 0 <= b < count:
                r_fg += fb[a] * gb[b]
    parts = [paraproduct(fb, gb), r_fg, paraproduct(gb, fb)]
    if factor == 2:
        return parts
    lifted = []
    for values in parts:
        spec = np.fft.rfft2(values)[:, : band + 1]
        spec[band + 1 : n - band] = 0.0
        half = np.zeros((2 * n, n + 1), dtype=np.complex128)
        half[: n // 2, : band + 1] = 4.0 * spec[: n // 2]
        half[-n // 2 :, : band + 1] = 4.0 * spec[n // 2 :]
        lifted.append(np.fft.irfft2(half, s=(2 * n, 2 * n)))
    return lifted


def _counting(real, log):
    def wrapped(a, *args, **kwargs):
        log.append(a.shape[0])
        return real(a, *args, **kwargs)

    return wrapped


class TestZeroBlocks:
    """Blocks whose annulus holds no nonzero coefficient are skipped, and
    every result is that of transforming all of them."""

    @pytest.mark.parametrize("kind", ["band8", "mode8", "edge", "gap", "zero"])
    def test_a_skipped_block_is_exactly_zero(self, grid, part, kind):
        f = _fields(grid)[kind]
        blocks = lp.nonzero_blocks(f)
        assert len(blocks) == part.j_max + 1
        for j, b in enumerate(blocks):
            full = lp.dyadic_block(f, j)
            if b is None:
                assert not full.coef.any()
            else:
                assert np.array_equal(b.coef, full.coef)

    def test_which_blocks_are_skipped(self, grid):
        fields = _fields(grid)
        skipped = {k: [b is None for b in lp.nonzero_blocks(f)] for k, f in fields.items()}
        # |xi| = 8 = 2^3 is an endpoint of A_2 and A_4, so only j = 3 remains.
        assert skipped["mode8"] == [True, True, True, False, True, True, True]
        assert skipped["edge"] == [True, True, False, False, True, True, True]
        assert skipped["band8"] == [False, False, False, False, True, True, True]
        assert skipped["gap"] == [False, False, False, True, False, False, False]
        assert all(skipped["zero"])

    @pytest.mark.parametrize("kind", ["band8", "mode8", "edge", "gap", "zero"])
    def test_results_match_all_blocks(self, grid, part, kind):
        fields = _fields(grid)
        f, g = fields[kind], fields["band8"]
        for spec in (lp.BesovSpec(0.5, 4.0, 2.0), lp.BesovSpec(-1.0, np.inf, np.inf)):
            assert lp.besov_norm(f, spec) == _besov_oracle(f, spec, part)
        for got, want in zip(lp.bony_decompose(f, g), _bony_oracle(f, g, part)):
            assert np.array_equal(got.values, want)  # -0.0 == 0.0
        for got, want in zip(lp.bony_decompose(g, f), _bony_oracle(g, f, part)):
            assert np.array_equal(got.values, want)
        rep = lp.log_inequality_ratio(f, 3.0)
        sups = [sp.vorticity_gradient_sups(b)[1] for b in _all_blocks(f, part)]
        term_mid = term_high = 0.0
        for j, s in enumerate(sups):
            if j < rep.n_split:
                term_mid += s
            else:
                term_high += s
        assert (rep.term_mid, rep.term_high) == (term_mid, term_high)

    def test_band8_transform_counts(self, grid, monkeypatch):
        # Band 8 at n = 128 leaves blocks j = 4, 5, 6 empty: 4 of 7 blocks
        # are transformed, each pass on the collocation grid its band
        # needs (12 * 8 <= 128).
        f = _fields(grid)["band8"]
        m = grid.n
        rows = []
        monkeypatch.setattr(np.fft, "irfft", _counting(np.fft.irfft, rows))
        lp.log_inequality_ratio(f, 3.0)
        assert sum(rows) == (3 + 3 * 4) * m  # w's pass and 4 block sups
        rows.clear()
        lp.besov_norm(f, lp.BesovSpec(0.5, 4.0, 2.0))
        assert sum(rows) == 4 * m
        rows.clear()
        lp.bony_decompose(f, f)
        # f's 4 blocks on the n grid (8 + 8 <= n/2 - 1), sampled once for
        # both factors, then the 3 parts on the 2n grid.
        assert sum(rows) == 4 * m + 3 * 2 * m


class TestBonyGrid:
    """`bony_decompose` forms its parts on the grid the fields' band sum
    needs, at most 2n, and returns them on the 2n grid."""

    @pytest.mark.parametrize("seed", range(3))
    def test_band8_parts_match_the_2n_grid(self, grid, part, seed):
        # 8 + 8 <= n/2 - 1: the parts form on the n grid.
        f = band_field(grid, seed=100 + seed, band=8)
        g = band_field(grid, seed=110 + seed, band=8)
        for got, want in zip(lp.bony_decompose(f, g), _bony_oracle(f, g, part, factor=2)):
            assert got.grid.n == 2 * grid.n
            assert np.max(np.abs(got.values - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("band", [40, 63])
    def test_wide_bands_keep_the_2n_grid(self, grid, part, band):
        # 2 band > n/2 - 1: the parts form on the 2n grid as before.
        f = band_field(grid, seed=120, band=band)
        g = band_field(grid, seed=121, band=band)
        for got, want in zip(lp.bony_decompose(f, g), _bony_oracle(f, g, part, factor=2)):
            assert np.array_equal(got.values, want)

    def test_round_trip_fields_sample_at_2n_never_4n(self, grid, monkeypatch):
        # A spectrum made by `forward` carries round-off in every mode, so
        # its exact band is n/2 and a pair's band sum n needs the 4n grid
        # by `product`'s rule; Bony caps it at 2n.
        f, g = (
            sp.forward(oracles.inverse(band_field(grid, seed=s, band=8))) for s in (130, 131)
        )
        band = sp._support(f)[1] + sp._support(g)[1]
        assert band == grid.n and sp._grid_factor(grid.n, 2 * band + 2) == 4
        factors = []
        real = sp._fine_rows

        def spy(leading, factor, out=None):
            factors.append(factor)
            return real(leading, factor, out)

        monkeypatch.setattr(sp, "_fine_rows", spy)
        parts = lp.bony_decompose(f, g)
        assert factors == [2, 2]
        monkeypatch.undo()
        direct = sp.oversampled_values(f, 2) * sp.oversampled_values(g, 2)
        total = sum(p.values for p in parts)
        assert np.max(np.abs(total - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_the_2n_grid_of_the_parts_builds_no_lattice(self, monkeypatch):
        monkeypatch.setattr(sp.TorusGrid, "_live", {})
        g = sp.TorusGrid(32)
        f, h = (band_field(g, seed=s, band=3) for s in (140, 141))
        lp.bony_decompose(f, h)
        assert "ksq" not in vars(sp.TorusGrid(64))

    def test_band8_split_peaks_below_its_blocks_on_the_2n_grid(self, grid):
        # The 2n-grid samples of the 8 nonzero blocks of two band-8 fields
        # alone take 8 (2n)^2 float64s, 4 MiB at n = 128.
        f, g = (band_field(grid, seed=s, band=8) for s in (150, 151))
        lp.bony_decompose(f, g)  # the partition and both grids, once
        peak = oracles.traced_peak(lambda: lp.bony_decompose(f, g))
        assert peak < 8 * (2 * grid.n) ** 2 * 8
