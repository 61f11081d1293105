"""Binary checkpoint format for simulation states.

Little-endian layout:

    magic   4 bytes   b"MHD2"
    version u32       1
    n       u32       grid size
    t       f64       state time
    alpha   f64       dissipation exponent
    beta    f64       diffusion exponent
    nu      f64       dissipation coefficient
    eta     f64       diffusion coefficient
    w       n*n*(re f64, im f64) row-major, wavenumber index order
    j       n*n*(re f64, im f64) same

Round trips are bit-exact.  Reading rejects, with CheckpointFormatError,
a header whose n, exponents or coefficients `SolverConfig` rejects or
whose t is not finite, and any payload that is not a valid dealiased,
zero-mean, Hermitian state.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .dynamics import MHDState, SolverConfig

MAGIC = b"MHD2"
VERSION = 1
_HEADER = struct.Struct("<4sII5d")


class CheckpointFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Checkpoint:
    state: MHDState
    alpha: float
    beta: float
    nu: float
    eta: float


def write_checkpoint(path, state: MHDState, config) -> None:
    """Write atomically: a temporary file beside `path` is filled, synced
    and renamed over it, so a failed write leaves any previous checkpoint
    at `path` as it was."""
    n = state.grid.n
    header = _HEADER.pack(
        MAGIC, VERSION, n, state.t, config.alpha, config.beta, config.nu, config.eta
    )
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(state.w.coef, dtype="<c16").tobytes())
            fh.write(np.ascontiguousarray(state.j.coef, dtype="<c16").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CheckpointFormatError("truncated header")
        magic, version, n, t, alpha, beta, nu, eta = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointFormatError(f"unsupported format version {version}")
        body = fh.read()
    expected = 2 * n * n * 16
    if len(body) != expected:
        raise CheckpointFormatError(f"payload is {len(body)} bytes, expected {expected}")
    coefs = np.frombuffer(body, dtype="<c16").reshape(2, n, n)  # each field copies its half
    try:  # a bad header value, non-finite coefficients, a non-zero mean mode, or aliased modes
        SolverConfig(alpha=alpha, beta=beta, nu=nu, eta=eta, n=n)
        grid = sp.TorusGrid(n)
        w = sp.SpectralField(grid, coefs[0])
        j = sp.SpectralField(grid, coefs[1])
        state = MHDState(t=t, w=w, j=j)
    except ValueError as err:
        raise CheckpointFormatError(str(err)) from err
    for name, f in (("w", w), ("j", j)):
        top = float(np.max(np.abs(f.coef)))
        if top > 0 and f.hermitian_defect() > 1e-10 * top:
            raise CheckpointFormatError(f"{name} coefficients are not Hermitian-symmetric")
    return Checkpoint(state=state, alpha=alpha, beta=beta, nu=nu, eta=eta)
