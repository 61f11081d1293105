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
  (the L^2 norm is over [0, 2*pi)^2, not the mean square).
* Real fields are kept exactly real by doing the physical<->spectral
  round trips with real 1D transforms and extending the half spectrum by
  Hermitian symmetry, which also keeps coef(-xi) == conj(coef(xi))
  exact at the bit level.
* Compact columns.  A band-limited field occupies only the leading
  columns 0 .. width-1 of its half spectrum (width = n//3 + 1 for a
  2/3-dealiased field).  A real 2D transform is a complex pass along
  axis 0, one 1D transform per half-spectrum column, and a real pass
  along axis 1.  Every transform in the package runs these two passes on
  the leading columns only, in `_inverse_columns`, `_forward_columns` or
  `_fine_rows` (the row pass of `oversampled_rows`); `_fine_columns`
  zero-pads a field's columns to the rows of a finer grid.  Every skipped column is exactly zero and every
  1D transform that runs is the one rfft2/irfft2 would run, so the
  results are bit-identical to the full-width transforms.
* The factor^2 of a fine grid.  Evaluating on a factor-times finer grid
  needs the inverse transform of that grid times factor^2.
  `_fine_columns` writes factor^2 * coef while it zero-pads, so no pass
  sweeps the fine grid again.  factor^2 is a power of two, so scaling the
  input gives the bits of scaling the output (barring overflow and
  underflow).
* Zero-tailed half spectrum.  irfft pads a short input with zeros, with
  the same bits, but runs faster on a full-width (rows, m//2 + 1) input
  whose tail is zero already (by 7 to 25% on 4x-grid row blocks at
  n = 128 to 512, numpy 2.4 pocketfft on a 2-core Xeon).  So a reused
  buffer (a stage's workspace, the pads of `oversampled_rows`) takes
  the complex pass in its leading columns; a one-off transform reads its
  short complex pass rather than allocate a zero tail.
* Row blocks.  A sup or L^p (p != 2) norm on the OVERSAMPLE grid needs
  only a max or a sum, so it never holds the whole fine-grid array:
  `oversampled_rows` runs the real pass ROW_BLOCK fine rows at a time,
  each from a zero-tailed half spectrum of its own per field, bit for
  bit the rows of `oversampled_values`, and `lp_norm` and
  `vorticity_gradient_rows` (the one source of w and |grad u|^2 on that
  grid) reduce each block as it comes.  The yielded buffers are scratch: the next block overwrites
  them.  Products of fields (the commutator, paraproduct, positivity and
  product diagnostics) still take whole arrays from `oversampled_values`.

Where each invariant is checked:

* Dealiasing: `SpectralField.dealiased` reads it from the coefficients
  (no mode with max(|xi_1|, |xi_2|) > n/3); a field built with a true
  `claim_dealiased` argument raises DealiasError if it does not hold.
* Zero mean and dealiasing of a simulation state: `MHDState`
  (module dynamics), for every state the solver makes or reads.
* Hermitian symmetry: built exactly by `_hermitian_extend` on every
  forward transform, and checked on outside input by `read_checkpoint`.
* Active spectrum: `active_modes` holds the one threshold below which a
  coefficient counts as transform round-off; `active_band` and
  `littlewood_paley.bernstein_ratio` read it.

Ownership: a field takes over a C-contiguous float64/complex128 array
that owns its data (`base is None`) without a copy and freezes it in
place (writeable=False); it copies any other input, views included, so
no base array can write into a field.  A caller that hands an array over
gives it up and keeps no view of it: such a view would still write into
the field.  No operation mutates a field, and none writes to its
inputs except scratch blocks: `oversampled_rows` reuses its yielded
buffers, `vorticity_gradient_rows` overwrites them with |grad u|^2, and
`power_sum` and `lp_of_samples` overwrite the blocks they are given.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import InitVar, dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Grid refinement for sup and L^p (p != 2) norms: `lp_norm` and
# `vorticity_gradient_rows` evaluate on an OVERSAMPLE*n grid.
OVERSAMPLE = 4
# Fine-grid rows per block of `oversampled_rows`.
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


def check_grid_size(n: int) -> int:
    """n as an int if it is a valid grid size (an integer power of two
    >= 8; numpy integers count), else ValueError."""
    if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be an integer power of two >= 8, got {n!r}")
    return int(n)


class TorusGrid:
    """Collocation grid and integer wavenumber lattice on [0, 2*pi)^2.

    n must be a power of two, n >= 8.  There is one live grid per n:
    while any reference to a grid is held, TorusGrid(n) returns that same
    grid instead of building the lattice again, so grids with equal n are
    identical and identity is equality.
    """

    _live = weakref.WeakValueDictionary()

    def __new__(cls, n: int):
        n = check_grid_size(n)
        grid = cls._live.get(n)
        if grid is not None:
            return grid
        grid = super().__new__(cls)
        grid.n = n
        k = np.fft.fftfreq(n, 1.0 / n)  # exact integers as floats
        grid.k1, grid.k2 = (_frozen(a) for a in np.meshgrid(k, k, indexing="ij"))
        grid.ksq = _frozen(grid.k1**2 + grid.k2**2)
        grid.kmag = _frozen(np.sqrt(grid.ksq))
        inv = np.zeros_like(grid.ksq)
        inv[grid.ksq > 0] = 1.0 / grid.ksq[grid.ksq > 0]
        grid.inv_ksq = _frozen(inv)
        # Odd-order multipliers annihilate the Nyquist line so that they
        # map Hermitian-symmetric arrays to Hermitian-symmetric arrays.
        kd = k.copy()
        kd[n // 2] = 0.0
        grid.kd1, grid.kd2 = (_frozen(a) for a in np.meshgrid(kd, kd, indexing="ij"))
        grid.dealias_cutoff = n // 3
        grid.dealias_mask = _frozen(
            (np.abs(grid.k1) <= grid.dealias_cutoff)
            & (np.abs(grid.k2) <= grid.dealias_cutoff)
        )
        cls._live[n] = grid
        return grid

    def __reduce__(self):
        # A copy or an unpickled grid is the live grid of its n.
        return TorusGrid, (self.n,)

    def coordinates(self):
        """Meshgrid (X1, X2) of collocation points."""
        x = np.arange(self.n) * (TWO_PI / self.n)
        return np.meshgrid(x, x, indexing="ij")

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

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "RealField":
        x1, x2 = grid.coordinates()
        return cls(grid, fn(x1, x2))


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
        """True if every coefficient outside the grid's dealias_mask is
        exactly zero; transform round-off there counts."""
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

    def is_zero_mean(self) -> bool:
        """True if the xi=0 coefficient is at most 1e-12 of the largest
        coefficient (exactly zero for a zero field)."""
        top = np.max(np.abs(self.coef))
        return abs(self.coef[0, 0]) <= 1e-12 * top


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
    (m rows, the columns not given are zero); irfft2 bit for bit.

    `half` is a complex scratch of m rows whose columns from
    block.shape[1] on are zero, and stay so: a zero-tailed (m, m//2 + 1)
    one, or `block` itself, which the complex pass overwrites; `out` takes
    the samples."""
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


def inverse(F: SpectralField) -> RealField:
    """Spectral coefficients -> physical samples (1/n^2 normalization)."""
    return RealField(F.grid, oversampled_values(F, 1))


def symbol_power(grid: TorusGrid, gamma: float) -> np.ndarray:
    """|xi|^(2*gamma) on the lattice; the xi=0 entry is 0 unless gamma == 0.

    Cached per (n, gamma); the returned array is shared and read-only.
    """
    return _symbol_power(grid.n, float(gamma))


@functools.lru_cache(maxsize=16)
def _symbol_power(n: int, gamma: float) -> np.ndarray:
    # Keyed by n, not by the grid, so that the cache keeps no grid alive.
    if gamma == 0.0:
        return _frozen(np.ones((n, n)))
    ksq = TorusGrid(n).ksq
    sym = np.zeros((n, n))
    nz = ksq > 0
    sym[nz] = ksq[nz] ** gamma
    return _frozen(sym)


def fractional_laplacian(F: SpectralField, gamma: float) -> SpectralField:
    """Fourier multiplier |xi|^(2*gamma); xi=0 is annihilated for gamma > 0
    and left unchanged for gamma == 0."""
    if gamma < -1.0:
        raise ValueError(f"exponent gamma must be >= -1, got {gamma}")
    if gamma < 0.0 and not F.is_zero_mean():
        raise MeanModeError("negative-order multiplier needs a zero-mean field")
    return SpectralField(F.grid, symbol_power(F.grid, gamma) * F.coef)


def partial_derivative(F: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis via the multiplier i*xi_axis (axis is 1 or 2)."""
    if axis == 1:
        k = F.grid.kd1
    elif axis == 2:
        k = F.grid.kd2
    else:
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return SpectralField(F.grid, 1j * k * F.coef)


def _biot_savart_symbols(g: TorusGrid):
    """(i xi_2, -i xi_1)/|xi|^2, and 0 at xi = 0: the zero-mean-velocity gauge."""
    return 1j * g.kd2 * g.inv_ksq, -1j * g.kd1 * g.inv_ksq


def biot_savart(w: SpectralField):
    """Divergence-free velocity with curl u = w and zero mean.

    u_hat(xi) = (i xi_2, -i xi_1) w_hat(xi)/|xi|^2, u_hat(0) = 0.
    """
    if not w.is_zero_mean():
        raise MeanModeError("curl fields have zero mean; got a nonzero xi=0 mode")
    return tuple(SpectralField(w.grid, m * w.coef) for m in _biot_savart_symbols(w.grid))


def _gradient_coefs(g: TorusGrid, coef: np.ndarray):
    """Coefficients of d1u1, d2u1 and d1u2 for the divergence-free u with
    curl u = w, from the leading columns `coef` of w's spectrum (all n of
    them, or fewer); d2u2 = -d1u1."""
    cols = slice(0, coef.shape[1])
    k1, k2 = g.k1[:, cols], g.k2[:, cols]
    q = g.inv_ksq[:, cols] * coef
    return -k1 * k2 * q, -k2 * k2 * q, k1 * k1 * q


def velocity_gradient(w: SpectralField):
    """The four components (d1u1, d2u1, d1u2, d2u2) of grad u for the
    divergence-free u with curl u = w, straight from the vorticity."""
    d11, d21, d12 = _gradient_coefs(w.grid, w.coef)
    return tuple(SpectralField(w.grid, c) for c in (d11, d21, d12, -d11))


def zero_mean(F: SpectralField) -> SpectralField:
    """Copy with the xi=0 coefficient set exactly to zero."""
    coef = F.coef.copy()
    coef[0, 0] = 0.0
    return SpectralField(F.grid, coef)


# --- norms -----------------------------------------------------------------

def l2_norm_sq(F: SpectralField) -> float:
    """||f||_{L^2([0,2pi)^2)}^2 by Parseval."""
    n = F.grid.n
    return float(TWO_PI**2 / n**4 * np.sum(np.abs(F.coef) ** 2))


def l2_norm(F: SpectralField) -> float:
    return float(np.sqrt(l2_norm_sq(F)))


def weighted_l2_norm_sq(F: SpectralField, weight: np.ndarray) -> float:
    """sum weight(xi)*|coef(xi)|^2 scaled to an L^2 integral."""
    n = F.grid.n
    return float(TWO_PI**2 / n**4 * np.sum(weight * np.abs(F.coef) ** 2))


def active_modes(F: SpectralField) -> np.ndarray:
    """Mask of the coefficients above 1e-13 * max|coef|, so transform
    round-off does not count (all False for the zero field)."""
    mags = np.abs(F.coef)
    return mags > 1e-13 * mags.max()


def active_band(F: SpectralField) -> int:
    """Largest max(|xi_1|, |xi_2|) over the `active_modes` of F (0 if the
    field is zero)."""
    active = active_modes(F)
    k = np.abs(F.grid.k1[:, 0])  # |xi_1| by row, and |xi_2| by column
    return int(max(k[active.any(axis=1)].max(initial=0), k[active.any(axis=0)].max(initial=0)))


def _occupied_columns(F: SpectralField, factor: int) -> np.ndarray:
    """F's leading half-spectrum columns up to the last nonzero one, all n
    rows (a view).  For factor > 1 the spectrum must be Nyquist-free (max
    component <= n/2 - 1), which every dealiased field satisfies: only a
    field that is not pays for the `active_band` scan."""
    n = F.grid.n
    if factor > 1 and not F.dealiased and active_band(F) > n // 2 - 1:
        raise ValueError("field carries Nyquist content; cannot oversample exactly")
    occupied = np.flatnonzero(F.coef[:, : n // 2 + 1].any(axis=0))
    width = int(occupied[-1]) + 1 if occupied.size else 1
    return F.coef[:, :width]


def _fine_columns(cols: np.ndarray, factor: int) -> np.ndarray:
    """Leading half-spectrum columns `cols` (n rows) zero-padded to the
    factor*n rows of the factor-times finer grid and scaled by factor**2,
    so that the inverse transform on that grid gives the values of the
    trigonometric polynomial (module docstring)."""
    n = cols.shape[0]
    m = factor * n
    block = np.zeros((m, cols.shape[1]), dtype=np.complex128)
    np.multiply(cols[: n // 2], factor**2, out=block[: n // 2])
    np.multiply(cols[n // 2 :], factor**2, out=block[m - n // 2 :])
    return block


def oversampled_values(F: SpectralField, factor: int) -> np.ndarray:
    """Evaluate the trigonometric polynomial on a factor-times finer grid;
    factor 1 gives the collocation samples of `inverse`.  The whole
    (factor*n)^2 array: sup and L^p reductions on the OVERSAMPLE grid go
    through `oversampled_rows` instead."""
    block = _fine_columns(_occupied_columns(F, factor), factor)
    return _inverse_columns(block, factor * F.grid.n, half=block)


def oversampled_rows(fields):
    """For each block of ROW_BLOCK consecutive rows of the OVERSAMPLE grid,
    yield a list with the values of each field on those rows: the rows of
    `oversampled_values(F, OVERSAMPLE)`, bit for bit.

    The yielded arrays are scratch: one buffer per field, overwritten by
    the next block, which the caller may also overwrite.
    """
    _check_same_grid(*fields)
    yield from _fine_rows([_occupied_columns(F, OVERSAMPLE) for F in fields])


def _fine_rows(leading):
    """`oversampled_rows` from the leading half-spectrum columns (n rows)
    of each field."""
    m = OVERSAMPLE * leading[0].shape[0]  # >= 32 and a power of two: whole blocks
    blocks = [_fine_columns(c, OVERSAMPLE) for c in leading]
    for b in blocks:
        np.fft.ifft(b, axis=0, out=b)  # the complex pass, in place
    # One zero-tailed half spectrum per field: a shared one would hand a
    # narrower field the stale columns of a wider one.
    pads = [np.zeros((ROW_BLOCK, m // 2 + 1), dtype=np.complex128) for _ in leading]
    bufs = [np.empty((ROW_BLOCK, m)) for _ in leading]
    for r in range(0, m, ROW_BLOCK):
        for b, pad, buf in zip(blocks, pads, bufs):
            pad[:, : b.shape[1]] = b[r : r + ROW_BLOCK]
            np.fft.irfft(pad, n=m, axis=1, out=buf)
        yield bufs


def _oversample_factor_for(*bands, n: int, margin: int = 1) -> int:
    """Smallest power-of-two factor >= 2 so the fine grid resolves the
    stated product band with room to spare."""
    need = sum(bands) * margin
    factor = 1
    while factor * n // 2 - 1 < need:
        factor *= 2
    return max(factor, 2)


def lp_of_power_mean(mean: float, p: float) -> float:
    """L^p norm over [0, 2pi)^2 from the mean of |f|^p over the samples
    of a uniform grid."""
    return float((TWO_PI**2 * mean) ** (1.0 / p))


def power_sum(v: np.ndarray, p: float) -> float:
    """Sum of |v|^p over the block v, which it overwrites with |v|^p.
    p = 2, 4 and 8 square in place: `v **= p` runs numpy's general pow
    loop, several times slower."""
    if p in (2, 4, 8):
        for _ in range(int(p).bit_length() - 1):
            np.square(v, out=v)
    else:
        np.abs(v, out=v)
        v **= p
    return float(np.sum(v))


def lp_of_samples(blocks, p: float) -> float:
    """L^p norm over [0, 2pi)^2 of a function from its samples on a
    uniform grid, given as blocks of rows (one block for a whole array);
    the largest |sample| for p = inf.  Overwrites the blocks, which may be
    the scratch blocks `oversampled_rows` yields."""
    if np.isinf(p):
        return float(np.max([np.abs(v, out=v).max() for v in blocks]))
    total = 0.0
    count = 0
    for v in blocks:
        total += power_sum(v, p)
        count += v.size
    return lp_of_power_mean(total / count, p)


def lp_norm(F: SpectralField, p: float) -> float:
    """L^p norm over [0, 2pi)^2; p=2 by Parseval, otherwise the field is
    evaluated on the OVERSAMPLE grid (grid max for p = inf)."""
    if p == 2:
        return l2_norm(F)
    return lp_of_samples((v for v, in oversampled_rows((F,))), p)


def vorticity_gradient_rows(w: SpectralField):
    """Row blocks (w, |grad u|^2) on the OVERSAMPLE grid for the
    divergence-free u with curl u = w, scratch as in `oversampled_rows`.

    Three transforms, of w, d1u1 and the strain sigma = d1u2 + d2u1: in 2D
    d2u2 = -d1u1 and w = d1u2 - d2u1, so
    |grad u|^2 = 2 (d1u1)^2 + (sigma^2 + w^2)/2.  The w block is yielded
    unsquared, so its max stays exact where w^2 would underflow.  The
    gradient multipliers act on w's occupied columns only, and w's
    Nyquist check stands for the derived fields."""
    cols = _occupied_columns(w, OVERSAMPLE)
    c11, c21, c12 = _gradient_coefs(w.grid, cols)
    c12 += c21
    w_sq = np.empty((ROW_BLOCK, OVERSAMPLE * w.grid.n))
    for v, d11, sigma in _fine_rows((cols, c11, c12)):
        np.square(sigma, out=sigma)
        sigma += np.square(v, out=w_sq)
        sigma *= 0.5
        np.square(d11, out=d11)
        d11 += d11
        d11 += sigma
        yield v, d11


def vorticity_gradient_sups(w: SpectralField):
    """OVERSAMPLE-grid maxima (||w||_inf, ||grad u||_inf) for the u with
    curl u = w, from one `vorticity_gradient_rows` pass."""
    tops = [(np.abs(v, out=v).max(), sq.max()) for v, sq in vorticity_gradient_rows(w)]
    top_w, top_sq = np.max(tops, axis=0)
    return float(top_w), float(np.sqrt(top_sq))


def gradient_sup(w: SpectralField) -> float:
    """OVERSAMPLE-grid max of |grad u| for the u with curl u = w."""
    return vorticity_gradient_sups(w)[1]


# --- random data -----------------------------------------------------------

def random_band_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    band: int,
    amplitude: float = 1.0,
) -> SpectralField:
    """Seeded random real field with spectrum confined to 1 <= |xi| <= band,
    normalized so ||f||_{L^2} = amplitude (zero field for amplitude 0)."""
    if band < 1 or band > grid.n // 2 - 1:
        raise ValueError(f"band must lie in [1, n/2-1], got {band}")
    noise = rng.standard_normal((grid.n, grid.n))
    keep = (grid.kmag <= band) & (grid.ksq > 0)
    coef = np.where(keep, forward(RealField(grid, noise)).coef, 0.0)
    nrm = l2_norm(SpectralField(grid, coef))
    if amplitude == 0.0 or nrm == 0.0:
        return SpectralField.zeros(grid)
    return SpectralField(grid, coef * (amplitude / nrm))
