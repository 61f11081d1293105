"""Spectral primitives on the 2pi-periodic square torus.

Conventions used throughout the package:

* Physical fields are sampled on the uniform n x n collocation grid
  x_i = 2*pi*k/n, array axis 0 <-> x1, axis 1 <-> x2.
* Spectral fields hold the full n x n complex coefficient array in numpy
  FFT layout (integer wavenumbers fftfreq(n)*n, each component in
  [-n/2, n/2)).  The forward transform is unnormalized, the inverse
  carries 1/n^2, so a single Fourier mode a*exp(i xi.x) has coefficient
  a*n^2.
* Parseval with this normalization:
      ||f||_{L^2}^2 = (2*pi)^2 * n^-4 * sum |coef|^2
  (the L^2 norm is over [0, 2*pi)^2, not the mean square), written out
  once, in `lambda_norm_sq` at s = 0.
* Sobolev norms.  `lambda_norm_sq(F, s)` is the package's one Parseval
  sum, ||Lambda^s f||_{L^2}^2 = (2*pi)^2 * n^-4 * sum |xi|^(2s) |coef|^2,
  with the weight of `symbol_power`: the xi = 0 term counts only at
  s = 0 (so s = -1 gives the energy of the u with curl u = f).  The
  records and the energy budget take their squares from it, which
  overflow with the state's scale; every L^2 norm takes its root
  `lambda_norm(F, s)`, which scales with the field: where the plain sum
  overflows, or falls below n^2 times the smallest normal float for a
  nonzero F, it sums 2^-e F (`_binary_order`) and scales back by 2^e.
* Real fields are kept exactly real by doing the physical<->spectral
  round trips with real 1D transforms and extending the half spectrum by
  Hermitian symmetry, which also keeps coef(-xi) == conj(coef(xi))
  exact at the bit level.
* Compact columns.  A band-limited field occupies only the leading
  columns 0 .. width-1 of its half spectrum (width = n//3 + 1 for a
  2/3-dealiased field).  A real 2D transform is a complex pass along
  axis 0, one 1D transform per half-spectrum column, and a real pass
  along axis 1.  Every transform in the package runs these two passes on
  the leading columns only: an RK stage's in `_inverse_columns` and
  `_forward_columns`, and every evaluation on a grid (the collocation
  grid or a finer one) in `_fine_rows`, which zero-pads a field's
  columns to the rows of that grid.  Every skipped column is exactly
  zero and every 1D transform that runs is the one rfft2/irfft2 would
  run, so the results are bit-identical to the full-width transforms.
* The factor^2 of a fine grid.  Evaluating on a factor-times finer grid
  needs the inverse transform of that grid times factor^2.
  `_fine_rows` writes factor^2 * coef while it zero-pads, so no pass
  sweeps the fine grid again.  For a power-of-two factor (every one the
  package uses, 1 included: the collocation grid, where the norms and
  products of fields of low band sample) so is factor^2, and scaling
  the input gives the bits of scaling the output (barring overflow and
  underflow).
* Zero-tailed half spectrum.  irfft pads a short input with zeros, with
  the same bits, but runs faster on a full-width (rows, m//2 + 1) input
  whose tail is zero already (by 7 to 25% on 4x-grid row blocks at
  n = 128 to 512, numpy 2.4 pocketfft on a 2-core Xeon).  So every real
  pass reads a reused zero-tailed buffer that takes the complex pass in
  its leading columns: a stage's workspace, or the per-field pads of
  `_fine_rows`.
* Row blocks.  `_fine_rows` runs the real pass gcd(ROW_BLOCK, m) rows of
  an m-row grid at a time, from a zero-tailed half spectrum per field.
  `_fine_arrays` writes the blocks into whole arrays at the factor its
  caller gives, for `oversampled_values` (so `product` and the
  positivity guard) and `bony_decompose`.  A sup or L^p (p != 2) norm
  needs only a max or a sum, so it takes the blocks of `_fine_rows` in
  scratch that the next block overwrites: those of one field for
  `lp_norm`, or the w and |grad u|^2 blocks that
  `vorticity_gradient_norms`, the one source of both on a grid, forms
  from w's.
* Sampled norms.  `_sampled_norms` is the one reduction of sampled
  values to sup and L^p norms: `lp_norm`, `vorticity_gradient_norms`
  (for the records, the Calderon-Zygmund ratio and the gradient sups of
  the logarithmic inequality) and the Besov l^q sum all call it.  One
  pass tracks each field's sup and sums |f|^p block by block (squaring
  in place for p = 2, 4, 8).  Where a power mean overflows or falls
  below the smallest normal float (a huge p, or a tiny or huge field),
  one more pass takes it relative to that sup, so norms scale with the
  field and a nonzero field never reads 0.  `vorticity_gradient_norms`
  forms the squares |grad u|^2 for 2^-e w, with 2^e the binary order of
  w's largest mode (`_binary_order`), so they neither overflow nor
  underflow, and their norms scale back exactly.  The commutator and
  product ratios, of degree 0 in each field, take their fields at that
  unit scale.
* Grid factors.  `_grid_factor(n, nodes, cap)` is the one rule for the
  factor f of a sampling grid: the smallest power of two f >= 1 with
  f n >= nodes, at most cap.
* Products.  `product` samples fields of bands summing to B on the grid
  of `_grid_factor` with nodes = 2 B + 2, so f n/2 - 1 >= B.  No mode of
  the product has a component beyond B <= m/2 - 1 on that m = f n grid,
  so none wraps onto another: the transform of the sampled product is
  its exact spectrum (`_band_columns`).
  `littlewood_paley.bony_decompose` forms its block products by the same
  rule with cap = 2: its parts live on the 2n grid, where their samples
  are exact pointwise products whatever B is.  Sums form on one grid
  only.
* The grid follows the band.  A field's band B is the largest |xi_1| or
  |xi_2| of an exactly nonzero coefficient, read by `_support`.  A sup or
  L^p (p != 2) norm samples it on the grid of `_grid_factor` with
  nodes = 3 OVERSAMPLE B and cap = OVERSAMPLE: 12 nodes per shortest
  wavelength, as the OVERSAMPLE grid gives a dealiased field of full
  band.  That grid lies between the collocation and the OVERSAMPLE
  grid, and so does its sup.  For B <= n/3, Ehlich-Zeller in each
  variable puts the true sup of w (degree B) or |grad u|^2 (degree 2B)
  within sec^2(pi d / m) <= 4/3 of the maximum on m = f n nodes, and the
  grid means of |f|^2 (the Calderon-Zygmund ratio samples p = 2 too),
  |f|^4 and |f|^8 are exact integrals.

Where each invariant is checked:

* Dealiasing: `SpectralField.dealiased` reads it from the coefficients
  (no mode with max(|xi_1|, |xi_2|) > n/3); a field built with a true
  `claim_dealiased` argument raises DealiasError if it does not hold.
* Zero mean and dealiasing of a simulation state: `MHDState`
  (module dynamics), for every state the solver makes or reads, by the
  exact rule coef[0, 0] == 0 that the stepper keeps.
* Zero mean of the input of a homogeneous operation, which sees a field
  only modulo its mean: `check_zero_mean`, the one rule, in
  `fractional_laplacian` of negative order, `vorticity_gradient_norms`,
  `diagnostics.gn_ratio` and `littlewood_paley.besov_norm`,
  `bony_decompose` and `product_estimate_ratio`.
* Hermitian symmetry: built exactly by `_hermitian_extend` on every
  forward transform, and checked on outside input by `read_checkpoint`.
* Active spectrum: `active_modes` holds the one threshold below which a
  coefficient counts as transform round-off.  Grids read the exact
  support, checks read the active spectrum: the Nyquist check of
  `_occupied_columns` (through `active_band`) and
  `littlewood_paley.bernstein_ratio`'s ball-or-annulus test.

Ownership: a field takes over a C-contiguous float64/complex128 array
that owns its data (`base is None`) without a copy and freezes it in
place (writeable=False); it copies any other input, views included, so
no base array can write into a field.  A caller that hands an array over
gives it up and keeps no view of it: such a view would still write into
the field.  No operation mutates a field, and none writes to its
inputs except scratch blocks: `_fine_rows` reuses its yielded buffers,
`vorticity_gradient_norms` overwrites them with |grad u|^2, and
`_sampled_norms` overwrites the blocks it reduces.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import InitVar, dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# The largest grid refinement for sup and L^p (p != 2) norms: `lp_norm`
# and `vorticity_gradient_norms` sample a field on a grid of at most
# OVERSAMPLE*n points per axis, chosen from its band (module docstring).
OVERSAMPLE = 4
# Fine-grid rows per block of `_fine_rows`.
ROW_BLOCK = 32


class GridMismatchError(ValueError):
    """Fields attached to different grids were combined."""


class NonFiniteFieldError(ValueError):
    """A field contains NaN or Inf samples/coefficients."""


class MeanModeError(ValueError):
    """An operation required a zero-mean field but xi=0 carries mass."""


class DealiasError(ValueError):
    """A field required to be 2/3-dealiased carries a mode outside the band."""


def _frozen(arr):
    arr = np.ascontiguousarray(arr)
    if arr.base is not None:  # a view: its base would stay writeable
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def check_finite(name: str, value) -> None:
    """ValueError naming `name` unless the scalar `value` is finite: NaN
    and +-inf fail."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def check_weight(name: str, base: float, exponent: float) -> None:
    """ValueError naming `name` unless base**exponent, the largest weight
    of a power multiplier, is a finite float: a huge exponent fails here
    instead of as NaN once the weight meets a zero coefficient."""
    try:
        top = math.pow(base, exponent)
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValueError(f"{name}: the weight {base:g}^{exponent:g} is not a finite float")


def check_zero_mean(**fields) -> None:
    """MeanModeError naming the first keyword whose field has a mean: a
    xi = 0 coefficient above 1e-12 of its largest (a zero field passes)."""
    for name, F in fields.items():
        if abs(F.coef[0, 0]) > 1e-12 * np.max(np.abs(F.coef)):
            raise MeanModeError(f"{name} must have zero mean; got a nonzero xi=0 mode")


def check_grid_size(n: int) -> int:
    """n as an int if it is a valid grid size (an integer power of two
    >= 8; numpy integers count), else ValueError."""
    if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be an integer power of two >= 8, got {n!r}")
    return int(n)


class TorusGrid:
    """Collocation grid and integer wavenumber lattice on [0, 2*pi)^2.

    n must be a power of two, n >= 8.  One grid per n for the life of the
    process: TorusGrid(n) builds a grid once and returns it ever after, so
    identity is equality, and every cache of lattice data keys on the grid
    itself.  The lattice is one vector: `k` holds the n integer
    wavenumbers in FFT order, xi_1 = k[:, None] on array axis 0 and
    xi_2 = k on axis 1, and every multiplier broadcasts them.  `kd`, set
    with `k`, is k with the Nyquist entry -n/2 zeroed: odd-order
    multipliers annihilate the Nyquist lines so that they map
    Hermitian-symmetric arrays to Hermitian-symmetric arrays.
    `ksq` = |xi|^2 is the one lattice array, built on first read (the
    base of `symbol_power`), so a grid that only carries samples (the 2n
    grid of `bony_decompose`'s parts) costs no lattice.
    """

    _live = {}

    def __new__(cls, n: int):
        n = check_grid_size(n)
        grid = cls._live.get(n)
        if grid is not None:
            return grid
        grid = super().__new__(cls)
        grid.n = n
        grid.k = _frozen(np.fft.fftfreq(n, 1.0 / n))  # exact integers as floats
        grid.kd = _frozen(np.where(np.abs(grid.k) == n // 2, 0.0, grid.k))
        grid.dealias_cutoff = n // 3
        cls._live[n] = grid
        return grid

    @functools.cached_property
    def ksq(self) -> np.ndarray:
        return _frozen(self.k[:, None] ** 2 + self.k**2)

    def __reduce__(self):
        # A copy or an unpickled grid is the one grid of its n.
        return TorusGrid, (self.n,)

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    def __repr__(self):
        return f"TorusGrid(n={self.n})"


def _check_same_grid(*objs):
    n = objs[0].grid.n
    for o in objs[1:]:
        if o.grid.n != n:
            raise GridMismatchError(f"grids differ: {n} vs {o.grid.n}")


@dataclass(frozen=True)
class RealField:
    """Real scalar samples on the collocation grid; takes over `values` by
    the module's ownership rule."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"expected shape {(self.grid.n,) * 2}, got {v.shape}")
        if not np.isfinite(v).all():
            raise NonFiniteFieldError("real field contains non-finite samples")
        object.__setattr__(self, "values", _frozen(v))


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real scalar field (Hermitian-symmetric);
    takes over `coef` by the module's ownership rule.

    The optional third argument, `claim_dealiased`, is checked and not
    stored: if it is true and a coefficient lies outside the 2/3 band,
    construction raises DealiasError.
    """

    grid: TorusGrid
    coef: np.ndarray
    claim_dealiased: InitVar[bool] = False

    def __post_init__(self, claim_dealiased):
        c = np.ascontiguousarray(self.coef, dtype=np.complex128)  # for the float64 view
        if c.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"expected shape {(self.grid.n,) * 2}, got {c.shape}")
        if not np.isfinite(c.view(np.float64)).all():
            raise NonFiniteFieldError("spectral field contains non-finite coefficients")
        object.__setattr__(self, "coef", _frozen(c))
        if claim_dealiased and not self.dealiased:
            raise DealiasError("coefficients outside the 2/3 dealias band")

    @property
    def dealiased(self) -> bool:
        """True if every coefficient with max(|xi_1|, |xi_2|) > n//3 (the
        grid's dealias_cutoff, the 2/3 rule) is exactly zero; transform
        round-off there counts."""
        n, c = self.grid.n, self.grid.dealias_cutoff
        # Rows, then columns, with max(|xi_1|, |xi_2|) > n/3.
        return not (self.coef[c + 1 : n - c].any() or self.coef[:, c + 1 : n - c].any())

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "SpectralField":
        return cls(grid, np.zeros((grid.n, grid.n), dtype=np.complex128))

    def hermitian_defect(self) -> float:
        """Max |coef(-xi) - conj(coef(xi))| over the lattice."""
        flipped = self.coef[_negated_index(self.grid.n)][:, _negated_index(self.grid.n)]
        return float(np.max(np.abs(flipped - np.conj(self.coef))))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        """The sum of two fields on one grid; GridMismatchError otherwise."""
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coef + other.coef)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self + SpectralField(other.grid, -other.coef)


def _negated_index(n: int) -> np.ndarray:
    return (-np.arange(n)) % n


def _hermitian_extend(half: np.ndarray, n: int) -> np.ndarray:
    """Full n x n spectrum from the leading columns of an rfft2 half
    spectrum: all n//2 + 1 of them, or fewer when the rest are zero.
    Exact symmetry; the mirrored columns are copied through views."""
    width = half.shape[1]
    full = np.empty((n, n), dtype=np.complex128)
    full[:, :width] = half
    full[:, width : n - width + 1] = 0.0
    rows = _negated_index(n)
    # Columns 0 and n/2 mirror onto themselves; average out the round-off
    # asymmetry the real FFT leaves there.
    for c in (0, n // 2):
        if c < width:
            full[:, c] = 0.5 * (half[:, c] + np.conj(half[rows, c]))
    # Column n - c is conj(column c) with rows negated: row 0 stays, rows
    # 1 .. n-1 come from rows n-1 .. 1.
    last = min(width, n // 2)
    np.conj(half[0, last - 1 : 0 : -1], out=full[0, n - last + 1 :])
    np.conj(half[:0:-1, last - 1 : 0 : -1], out=full[1:, n - last + 1 :])
    return full


def _inverse_columns(block: np.ndarray, m: int, half: np.ndarray, out=None) -> np.ndarray:
    """m x m real samples from the leading half-spectrum columns `block`
    (m rows, the columns not given are zero) for an RK stage; irfft2 bit
    for bit.  `half` is a zero-tailed (m, m//2 + 1) complex scratch whose
    tail stays zero; `out` takes the samples."""
    np.fft.ifft(block, axis=0, out=half[:, : block.shape[1]])
    return np.fft.irfft(half, n=m, axis=1, out=out)


def _forward_columns(values: np.ndarray, width: int, out=None, half=None) -> np.ndarray:
    """The leading `width` columns of rfft2(values), bit for bit.

    `out` takes the (n, width) columns; `half` is an (n, n//2 + 1) complex
    scratch, zero-tailed beyond `width` again on return."""
    half = np.fft.rfft(values, axis=1, out=half)
    out = np.fft.fft(half[:, :width], axis=0, out=out)
    half[:, width:] = 0.0
    return out


def forward(f: RealField) -> SpectralField:
    """Physical samples -> spectral coefficients (unnormalized)."""
    n = f.grid.n
    return SpectralField(f.grid, _hermitian_extend(_forward_columns(f.values, n // 2 + 1), n))


@functools.lru_cache(maxsize=16)
def symbol_power(grid: TorusGrid, gamma: float) -> np.ndarray:
    """|xi|^(2*gamma) on the lattice; the xi=0 entry is 0 unless gamma == 0.

    Cached per (grid, gamma); the returned array is shared and read-only.
    A gamma that is not finite, or a gamma > 0 whose largest entry
    overflows, raises ValueError.
    """
    check_finite("exponent gamma", gamma)
    if gamma == 0.0:
        return _frozen(np.ones((grid.n, grid.n)))
    if gamma > 0.0:
        check_weight(f"exponent gamma = {gamma}", float(grid.ksq.max()), gamma)
    sym = np.zeros((grid.n, grid.n))
    nz = grid.ksq > 0
    sym[nz] = grid.ksq[nz] ** gamma
    return _frozen(sym)


def fractional_laplacian(F: SpectralField, gamma: float) -> SpectralField:
    """Fourier multiplier |xi|^(2*gamma); xi=0 is annihilated for gamma > 0
    and left unchanged for gamma == 0."""
    check_finite("exponent gamma", gamma)
    if not gamma >= -1.0:
        raise ValueError(f"exponent gamma must be >= -1, got {gamma}")
    if gamma < 0.0:
        check_zero_mean(F=F)
    return SpectralField(F.grid, symbol_power(F.grid, gamma) * F.coef)


def _biot_savart_symbols(g: TorusGrid):
    """(i xi_2, -i xi_1)/|xi|^2, and 0 at xi = 0: the zero-mean-velocity gauge."""
    inv = symbol_power(g, -1.0)
    return 1j * g.kd * inv, -1j * g.kd[:, None] * inv


def _gradient_coefs(g: TorusGrid, coef: np.ndarray):
    """Coefficients of d1u1 and of the strain sigma = d1u2 + d2u1 for the
    divergence-free u with curl u = w, from the leading columns `coef` of
    w's spectrum (all n of them, or fewer); d2u2 = -d1u1.  The caller
    checks that w has zero mean: no velocity has a curl with a mean."""
    width = coef.shape[1]
    k1, k2 = g.k[:, None], g.k[:width]
    q = symbol_power(g, -1.0)[:, :width] * coef
    return -k1 * k2 * q, k1 * k1 * q - k2 * k2 * q


def zero_mean(F: SpectralField) -> SpectralField:
    """Copy with the xi=0 coefficient set exactly to zero."""
    coef = F.coef.copy()
    coef[0, 0] = 0.0
    return SpectralField(F.grid, coef)


# --- norms -----------------------------------------------------------------

def lambda_norm_sq(F: SpectralField, s: float) -> float:
    """||Lambda^s f||_{L^2}^2 = (2 pi)^2 n^-4 sum |xi|^(2s) |coef|^2, with
    the weight of `symbol_power`: the xi = 0 term counts only at s = 0.
    The package's one Parseval sum; it overflows to inf silently."""
    n = F.grid.n
    with np.errstate(over="ignore"):
        return float(TWO_PI**2 / n**4 * np.sum(symbol_power(F.grid, s) * np.abs(F.coef) ** 2))


def lambda_norm(F: SpectralField, s: float = 0.0) -> float:
    """||Lambda^s f||_{L^2}, the root of `lambda_norm_sq`, at any scale of
    F: where that sum overflows, or falls below n^2 times the smallest
    normal float for a nonzero F, it is taken again for 2^-e F
    (`_binary_order`) and scaled back by 2^e, exactly."""
    total = lambda_norm_sq(F, s)
    if F.coef.size * sys.float_info.min <= total < math.inf or not F.coef.any():
        return math.sqrt(total)
    e = _binary_order(F)
    return math.sqrt(lambda_norm_sq(_ldexp(F, -e), s)) * 2.0**e


def _binary_order(F: SpectralField) -> int:
    """The binary exponent e of max|coef| / n^2, the amplitude of F's
    largest mode, so that 2^-e F has its largest amplitude in [1/2, 1)
    (e = 0 for the zero field)."""
    return math.frexp(float(np.abs(F.coef).max()) / F.grid.n**2)[1]


def _ldexp(F: SpectralField, e: int) -> SpectralField:
    """2^e F, scaled exactly (barring overflow and underflow)."""
    return SpectralField(F.grid, np.ldexp(F.coef.view(np.float64), e).view(np.complex128))


def active_modes(F: SpectralField) -> np.ndarray:
    """Mask of the coefficients above 1e-13 * max|coef|, so transform
    round-off does not count (all False for the zero field)."""
    mags = np.abs(F.coef)
    return mags > 1e-13 * mags.max()


def active_band(F: SpectralField) -> int:
    """Largest max(|xi_1|, |xi_2|) over the `active_modes` of F (0 if the
    field is zero)."""
    active = active_modes(F)
    k = np.abs(F.grid.k)  # |xi_1| by row, and |xi_2| by column
    return int(max(k[active.any(axis=1)].max(initial=0), k[active.any(axis=0)].max(initial=0)))


def _support(F: SpectralField):
    """F's leading half-spectrum columns up to the last nonzero one, all n
    rows (a view), and F's band (module docstring; 0 for the zero field),
    from the columns' width and the rows they occupy.

    A Hermitian spectrum with a zero half spectrum is zero, so a nonzero
    one raises ValueError: every sampler reads the half spectrum alone and
    would take it for the zero field."""
    n = F.grid.n
    occupied = np.flatnonzero(F.coef[:, : n // 2 + 1].any(axis=0))
    if not occupied.size and F.coef.any():
        raise ValueError("spectrum is not Hermitian: its half spectrum is zero, the rest is not")
    width = int(occupied[-1]) + 1 if occupied.size else 1
    cols = F.coef[:, :width]
    rows = np.abs(F.grid.k)[cols.any(axis=1)]  # |xi_1| of each occupied row
    return cols, max(width - 1, int(rows.max(initial=0)))


def _occupied_columns(F: SpectralField, factor: int | None = None):
    """F's `_support` columns and the factor of the grid to sample F on:
    `factor`, or when it is None that of F's exact band (module docstring).

    A finer grid needs a Nyquist-free spectrum (max component <= n/2 - 1).
    Only a field whose exact band reaches n/2, never a dealiased one, pays
    for the `active_band` scan, which lets round-off on the Nyquist lines
    pass."""
    n = F.grid.n
    cols, band = _support(F)
    if factor is None:
        factor = _grid_factor(n, 3 * OVERSAMPLE * band, OVERSAMPLE)
    if factor > 1 and band > n // 2 - 1 and active_band(F) > n // 2 - 1:
        raise ValueError("field carries Nyquist content; cannot oversample exactly")
    return cols, factor


def oversampled_values(F: SpectralField, factor: int) -> np.ndarray:
    """Evaluate the trigonometric polynomial on a factor-times finer grid;
    factor 1 gives the collocation samples.  The whole (factor*n)^2
    array: sup and L^p reductions stream `_fine_rows` instead."""
    return _fine_arrays([_occupied_columns(F, factor)[0]], factor)[0]


def _fine_arrays(leading, factor):
    """Whole (m, m) arrays of the values of the fields with leading
    columns `leading` on the m = factor*n grid, one `_fine_rows` pass."""
    m = factor * leading[0].shape[0]
    values = [np.empty((m, m)) for _ in leading]
    for _ in _fine_rows(leading, factor, out=values):
        pass
    return values


def _fine_rows(leading, factor, out=None):
    """Values of the fields with leading half-spectrum columns `leading`
    (n rows each) on the factor-times finer grid, gcd(ROW_BLOCK, m) of
    its m = factor*n rows at a time: yields one array per field, the rows
    of `out` (one (m, m) array per field) or else scratch that the next
    block overwrites.  The columns are zero-padded, scaled by factor**2
    and take the complex pass whole (module docstring)."""
    n = leading[0].shape[0]
    m = factor * n
    rows = int(np.gcd(ROW_BLOCK, m))  # whole blocks, for any factor
    blocks = []
    for cols in leading:
        b = np.zeros((m, cols.shape[1]), dtype=np.complex128)
        np.multiply(cols[: n // 2], factor**2, out=b[: n // 2])
        np.multiply(cols[n // 2 :], factor**2, out=b[m - n // 2 :])
        np.fft.ifft(b, axis=0, out=b)  # the complex pass, in place
        blocks.append(b)
    # One zero-tailed half spectrum per field: a shared one would hand a
    # narrower field the stale columns of a wider one.
    pads = [np.zeros((rows, m // 2 + 1), dtype=np.complex128) for _ in leading]
    if out is None:
        bufs = [np.empty((rows, m)) for _ in leading]
    for r in range(0, m, rows):
        dests = bufs if out is None else [o[r : r + rows] for o in out]
        for b, pad, dest in zip(blocks, pads, dests):
            pad[:, : b.shape[1]] = b[r : r + rows]
            np.fft.irfft(pad, n=m, axis=1, out=dest)
        yield dests


def _grid_factor(n: int, nodes: int, cap: float = math.inf) -> int:
    """The smallest power of two f >= 1 with f n >= nodes, or `cap` if that
    is smaller: the factor of every sampling grid (module docstring)."""
    factor = 1
    while factor < cap and factor * n < nodes:
        factor *= 2
    return factor


def _band_columns(values: np.ndarray, band: int) -> np.ndarray:
    """The leading band + 1 half-spectrum columns of the (m, m) samples
    `values` of a trigonometric polynomial of band <= m/2 - 1: its exact
    spectrum, with the transform's round-off beyond the band zeroed."""
    m = values.shape[0]
    cols = _forward_columns(values, band + 1)
    cols[band + 1 : m - band] = 0.0
    return cols


def product(*fields: SpectralField) -> SpectralField:
    """The exact spectrum of the pointwise product of the fields, on the
    grid the sum of their exact bands needs (module docstring); zero
    beyond that sum.  No coefficient of a field is cut, however small."""
    _check_same_grid(*fields)
    n = fields[0].grid.n
    band = sum(_support(F)[1] for F in fields)
    factor = _grid_factor(n, 2 * band + 2)
    m = factor * n
    unique = {id(F): F for F in fields}  # a field given more than once is evaluated once
    samples = {key: oversampled_values(F, factor) for key, F in unique.items()}
    values = functools.reduce(np.multiply, (samples[id(F)] for F in fields))
    return SpectralField(TorusGrid(m), _hermitian_extend(_band_columns(values, band), m))


def _sampled_norms(rows, wanted, held=None, counting=False):
    """Sup and L^p norms of sampled fields, reduced from row blocks: the
    one home of both (module docstring).

    `rows()` returns a fresh iterator of blocks, one array per field, all
    of one shape; the reduction overwrites them.  Field i's blocks hold
    f_i (held[i] = 1, the default) or |f_i|^2 (held[i] = 2).  wanted[i]
    lists the norms of f_i to return, in its order: inf for the sup,
    finite p ascending.  The norms are over [0, 2pi)^2 from grid means,
    or with `counting` the l^p norms of the values themselves."""
    held = held or (1,) * len(wanted)
    tops = np.zeros(len(wanted))

    def power_sums(todo, relative):
        # Sums of |f_i|^p over one pass for each (i, p) in todo, or of
        # (|f_i| / sup)^p when relative; the first pass tracks the sups.
        totals = dict.fromkeys(todo, 0.0)
        exponents = [[p for k, p in todo if k == i] for i in range(len(wanted))]
        count = 0
        with np.errstate(over="ignore"):  # an overflow is taken up below
            for block in rows():
                count += block[0].size
                for i, (v, ps) in enumerate(zip(block, exponents)):
                    if held[i] == 1:
                        np.abs(v, out=v)
                    if not relative:
                        tops[i] = np.maximum(tops[i], v.max())  # keeps a NaN
                    elif ps:
                        v /= tops[i]
                    q = held[i]
                    for p in ps:
                        # Squares in place: `v **= 8` runs numpy's general
                        # pow loop, several times slower.
                        if p / q in (1, 2, 4, 8):
                            for _ in range(int(p / q).bit_length() - 1):
                                np.square(v, out=v)
                        else:
                            v **= p / q
                        q = p
                        totals[i, p] += float(np.sum(v))
        return totals, count

    def norm(total, count, p):
        return float((total if counting else TWO_PI**2 * (total / count)) ** (1.0 / p))

    todo = [(i, p) for i, ps in enumerate(wanted) for p in ps if p != math.inf]
    totals, count = power_sums(todo, relative=False)
    sups = [math.sqrt(t) if h == 2 else float(t) for t, h in zip(tops, held)]
    norms = {(i, p): norm(totals[i, p], count, p) for i, p in todo}
    # A power mean that overflows, or falls below the smallest normal float
    # (its terms lost digits or vanished), is taken relative to the sup.
    redo = [(i, p) for i, p in todo if tops[i] > 0.0 and not (
        totals[i, p] >= count * sys.float_info.min and norms[i, p] < math.inf)]
    if redo:
        totals, count = power_sums(redo, relative=True)
        norms.update({(i, p): sups[i] * norm(totals[i, p], count, p) for i, p in redo})
    return [[sups[i] if p == math.inf else norms[i, p] for p in ps] for i, ps in enumerate(wanted)]


def lp_norm(F: SpectralField, p: float) -> float:
    """L^p norm over [0, 2pi)^2, p in [1, inf]: p = 2 by `lambda_norm`,
    otherwise `_sampled_norms` of the field's samples on the grid its band
    needs (module docstring), exact for p = 4 and 8."""
    if not 1.0 <= p <= np.inf:  # NaN fails too
        raise ValueError(f"exponent p must lie in [1, inf], got {p}")
    if p == 2:
        return lambda_norm(F)
    cols, factor = _occupied_columns(F)
    return _sampled_norms(functools.partial(_fine_rows, [cols], factor), [(p,)])[0][0]


def vorticity_gradient_norms(w: SpectralField, w_exponents, grad_exponents):
    """`_sampled_norms` of w and of |grad u| for the divergence-free u with
    curl u = w, the norms that `w_exponents` and `grad_exponents` list, on
    the grid that w's band needs (module docstring): the one reader of
    both.  w must have zero mean.

    Three transforms, of w, d1u1 and the strain sigma = d1u2 + d2u1: in 2D
    d2u2 = -d1u1 and w = d1u2 - d2u1, so
    |grad u|^2 = 2 (d1u1)^2 + (sigma^2 + w^2)/2.  w's columns, band and
    Nyquist check stand for the derived fields, and are formed once, also
    when the reduction takes a second pass.  The w blocks are reduced
    unsquared, so their max stays exact where w^2 would underflow.  The
    gradient is that of 2^-e w, with 2^e the binary order of w's largest
    mode (`_binary_order`): |grad u|^2 then neither overflows nor
    underflows, whatever w's scale, and its norms scale back by 2^e
    exactly."""
    check_zero_mean(w=w)
    e = _binary_order(w)
    cols, factor = _occupied_columns(w)
    scaled = np.ldexp(cols.view(np.float64), -e).view(np.complex128)
    leading = (cols, *_gradient_coefs(w.grid, scaled))

    def rows():
        w_sq = None  # the first block allocates it, the rest reuse it
        for v, d11, sigma in _fine_rows(leading, factor):
            np.square(sigma, out=sigma)
            w_sq = np.square(np.ldexp(v, -e, out=w_sq), out=w_sq)
            sigma += w_sq
            sigma *= 0.5
            np.square(d11, out=d11)
            d11 += d11
            d11 += sigma
            yield v, d11

    w_norms, grad_norms = _sampled_norms(rows, (w_exponents, grad_exponents), held=(1, 2))
    return w_norms, [v * 2.0**e for v in grad_norms]


# --- random data -----------------------------------------------------------

def random_band_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    band: int,
    amplitude: float = 1.0,
) -> SpectralField:
    """Seeded random real field with spectrum confined to 1 <= |xi| <= band,
    normalized so ||f||_{L^2} = amplitude >= 0 (zero field for amplitude 0)."""
    check_finite("amplitude", amplitude)
    if not amplitude >= 0.0:
        raise ValueError(f"amplitude must be nonnegative, got {amplitude}")
    if not 1 <= band <= grid.n // 2 - 1:
        raise ValueError(f"band must lie in [1, n/2-1], got {band}")
    noise = rng.standard_normal((grid.n, grid.n))
    keep = (np.sqrt(grid.ksq) <= band) & (grid.ksq > 0)
    coef = np.where(keep, forward(RealField(grid, noise)).coef, 0.0)
    nrm = lambda_norm(SpectralField(grid, coef))
    if amplitude == 0.0 or nrm == 0.0:
        return SpectralField.zeros(grid)
    return SpectralField(grid, coef * (amplitude / nrm))
