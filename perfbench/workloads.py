"""The benchmark's workloads: seeded inputs, measured loops and the
correctness check of every sample.

Two kinds of workload share one interface:

* `RunWorkload` drives `dynamics.run` through fixed-length episodes.  A
  sample is one interval between consecutive yielded records; its time is
  the wall time spent inside `run()` to produce the later record.  The
  first record of an episode is not a sample.
  Each episode starts from a pooled input whose final record is stored in
  `references.json`.
* `PanelWorkload` evaluates one panel of inequality diagnostics per
  seeded band-limited pair (f, g).  A sample is one panel.

`measure(workload, rng, seconds, refs, span)` runs either kind for a wall
budget and returns a `Tally`.  `span(name)` is a context-manager factory;
the traced run passes the tracer's, the untraced run a no-op.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from mhd2d import diagnostics, dynamics, littlewood_paley as lp, regimes
from mhd2d import spectral as sp

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# The solver is bit-exact deterministic for a given numpy build (tests pin
# this), so on the machine that wrote references.json the final records
# match exactly.  The tolerance only admits a differently vectorised FFT
# build reordering sums: round-off of 1e-16 grown over <= 100 steps of a
# dissipative, well-resolved flow stays far below 1e-9.
REF_RTOL = 1e-9
# Energy may not rise between samples of a dissipative run beyond round-off.
ENERGY_RTOL = 1e-9
# Hermitian symmetry is built by exact mirroring; allow only round-off.
HERMITIAN_RTOL = 1e-12
# lp128-panel identities: cz_ratio(p=2) == 1 by Parseval, the Bony parts
# sum to the product, and positivity_check is an equality at p = 2.
CZ2_TOL = 1e-12
BONY_RTOL = 1e-10
POSITIVITY_RTOL = 1e-10


def no_span(_name):
    return nullcontext()


@dataclass
class Tally:
    """What one measured loop saw."""

    sample_s: list = field(default_factory=list)  # per-sample time, for percentiles
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # first few failure reasons
    residuals: list = field(default_factory=list)  # budget residual per episode
    last_state: object = None

    def fail(self, reason):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(reason)


def _rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# --- time-stepping workloads -------------------------------------------------


@dataclass(frozen=True)
class RunWorkload:
    """`dynamics.run` on pooled seeded inputs, in fixed-length episodes.

    init "orszag-tang" adds a seeded random-band perturbation of the given
    amplitude to the Orszag-Tang vortex; "random-band" is the random-band
    state itself.  Pool entry k is generated from seed k.
    """

    name: str
    why: str
    alpha: float
    beta: float
    nu: float
    eta: float
    n: int
    dt: float
    output_every: int
    episode_steps: int
    init: str
    amplitude: float
    band: int
    budget_bound: float
    pool: int

    kind = "run"

    @property
    def tag(self):
        return regimes.classify_regime(self.alpha, self.beta, self.nu, self.eta)

    def config(self, n=None):
        return dynamics.SolverConfig(
            alpha=self.alpha, beta=self.beta, nu=self.nu, eta=self.eta,
            n=n or self.n, dt=self.dt, t_end=self.episode_steps * self.dt,
            output_every=self.output_every,
        )

    def initial(self, pool_seed, n=None):
        grid = sp.TorusGrid(n or self.n)
        noise = dynamics.make_initial(
            grid, "random-band", seed=pool_seed, amplitude=self.amplitude, band=self.band
        )
        if self.init == "random-band":
            return noise
        ot = dynamics.make_initial(grid, "orszag-tang")
        return dynamics.MHDState(
            0.0,
            sp.SpectralField(grid, ot.w.coef + noise.w.coef, True),
            sp.SpectralField(grid, ot.j.coef + noise.j.coef, True),
        )

    def first_result(self, seed):
        """Set-up as a user pays it: grid, initial state, first record."""
        return next(dynamics.run(self.config(), self.initial(seed % self.pool)))

    def episode(self, pool_seed, tally, span=no_span, deadline=math.inf, ref=None):
        """Run one episode, timing and checking every yielded record.

        Stops early, between samples, when the next sample would end past
        `deadline`; a truncated episode skips the end-of-episode checks that
        need the full run.  Returns the records produced.
        """
        config = self.config()
        gen = dynamics.run(config, self.initial(pool_seed))
        where = f"{self.name} seed {pool_seed}"
        records, state, longest, pending, done = [], None, 0.0, None, False
        # `pending` is the newest record's problem, settled when the next
        # record arrives or, for the last one, after the final checks.
        while not (records and time.perf_counter() + longest > deadline):
            t0 = time.perf_counter()
            try:
                with span("sample" if records else "first"):
                    item = next(gen, None)
            except Exception as err:  # a sample that raises is a failed sample
                if pending:
                    tally.fail(f"{where}: {pending}")
                tally.attempted += 1
                tally.fail(f"{where}: raised {err!r}")
                return records
            elapsed = time.perf_counter() - t0
            if item is None:
                done = True
                break
            if pending:
                tally.fail(f"{where} t={records[-1].t:.6g}: {pending}")
            if records:
                tally.sample_s.append(elapsed)
                longest = max(longest, elapsed)
            state, rec = item
            tally.attempted += 1
            pending = _check_record(rec, records)
            records.append(rec)
        gen.close()
        tally.last_state = state
        pending = pending or _check_final(state, records, config, self, ref if done else None)
        if pending:
            tally.fail(f"{where} t={records[-1].t:.6g}: {pending}")
        if len(records) >= 2:
            tally.residuals.append(diagnostics.energy_budget_residual(records, config))
        return records


def _check_record(rec, earlier):
    values = rec.as_row()
    if not all(math.isfinite(v) for v in values):
        return "non-finite record value"
    if earlier:
        prev = earlier[-1]
        if not rec.t > prev.t:
            return f"time did not advance ({prev.t} -> {rec.t})"
        e_prev = prev.energy_u + prev.energy_b
        if rec.energy_u + rec.energy_b > e_prev * (1.0 + ENERGY_RTOL):
            return "total energy rose in a dissipative run"
    return None


def _check_final(state, records, config, wl, ref):
    for name, f in (("w", state.w), ("j", state.j)):
        top = float(np.max(np.abs(f.coef)))
        if f.hermitian_defect() > HERMITIAN_RTOL * top:
            return f"final {name} is not Hermitian-symmetric"
        if f.coef[0, 0] != 0.0:
            return f"final {name} has a non-zero mean mode"
    if ref is None:
        return None
    for col, want in ref["record"].items():
        got = getattr(records[-1], col)
        if _rel_err(got, want) > REF_RTOL:
            return f"final {col}={got!r} differs from reference {want!r}"
    resid = diagnostics.energy_budget_residual(records, config)
    if not resid <= wl.budget_bound:
        return f"budget residual {resid:.3g} above bound {wl.budget_bound:g}"
    return None


# --- inequality-panel workload -----------------------------------------------


@dataclass(frozen=True)
class PanelWorkload:
    """One panel of Littlewood-Paley and inequality diagnostics per seeded
    band-limited pair (f, g) on the n-grid."""

    name: str
    why: str
    n: int
    band: int
    bernstein_j: int

    kind = "panel"
    tag = "none (no exponents)"

    def inputs(self, rng):
        grid = sp.TorusGrid(self.n)
        f = sp.random_band_field(grid, rng, self.band, 1.0)
        g = sp.random_band_field(grid, rng, self.band, 1.0)
        return f, g, lp.dyadic_block(f, self.bernstein_j)

    def panel(self, f, g, block):
        """The measured work: every inequality diagnostic of the paper."""
        lhs, rhs = diagnostics.positivity_check(f, 2, 0.5)
        return {
            "besov": lp.besov_norm(f, lp.BesovSpec(0.5, 4.0, 2.0)),
            "bony": lp.bony_decompose(f, g),
            "product": lp.product_estimate_ratio(f, g, 0.5, 0.5),
            "log_ratio": lp.log_inequality_ratio(f, 3.0).ratio,
            "commutator": diagnostics.commutator_ratio(f, g, 1.0, (4, 4, 4, 4)),
            "positivity": (lhs, rhs),
            "gn": diagnostics.gn_ratio(f, 1.5),
            "cz4": diagnostics.cz_ratio(f, 4),
            "cz2": diagnostics.cz_ratio(f, 2),
            "bernstein": lp.bernstein_ratio(block, self.bernstein_j, 1).linf,
        }

    def first_result(self, seed):
        return self.panel(*self.inputs(np.random.default_rng(seed)))

    def check(self, f, g, out):
        scalars = [v for k, v in out.items() if k not in ("bony", "positivity")]
        if not all(math.isfinite(v) and v > 0.0 for v in scalars):
            return "a ratio is not finite and positive"
        if abs(out["cz2"] - 1.0) > CZ2_TOL:
            return f"cz_ratio(p=2) = {out['cz2']!r}, not 1"
        lhs, rhs = out["positivity"]
        if abs(lhs - rhs) > POSITIVITY_RTOL * abs(rhs):
            return f"positivity_check(p=2) sides differ: {lhs!r} vs {rhs!r}"
        product = sp.oversampled_values(f, 2) * sp.oversampled_values(g, 2)
        parts = sum(part.values for part in out["bony"])
        if np.max(np.abs(parts - product)) > BONY_RTOL * np.max(np.abs(product)):
            return "Bony parts do not sum to the product"
        return None


# --- measured loop -------------------------------------------------------------


def measure(wl, rng, seconds, refs=None, span=no_span):
    """Run `wl` for `seconds` of wall time; every sample is checked."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    if wl.kind == "run":
        while time.perf_counter() < deadline:
            pool_seed = int(rng.integers(wl.pool))
            wl.episode(pool_seed, tally, span, deadline, refs[str(pool_seed)])
        return tally
    longest = 0.0
    while time.perf_counter() + longest < deadline:
        f, g, block = wl.inputs(rng)
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            with span("sample"):
                out = wl.panel(f, g, block)
        except Exception as err:  # a sample that raises is a failed sample
            tally.fail(f"panel raised {err!r}")
            continue
        elapsed = time.perf_counter() - t0
        tally.sample_s.append(elapsed)
        longest = max(longest, elapsed)
        tally.last_state = dynamics.MHDState(0.0, f, g)
        problem = wl.check(f, g, out)
        if problem:
            tally.fail(problem)
    return tally


# --- the workloads ---------------------------------------------------------------

WORKLOADS = {
    wl.name: wl
    for wl in (
        RunWorkload(
            name="ot256-sparse",
            why="Orszag-Tang at n=256, a record every 40 steps: the IF-RK4 step and its FFTs "
            "take ~95% of the time, diagnostics barely show",
            alpha=1.0, beta=1.0, nu=1e-3, eta=1e-3, n=256, dt=2.5e-4,
            output_every=40, episode_steps=80,
            init="orszag-tang", amplitude=0.05, band=8,
            budget_bound=1e-9, pool=8,
        ),
        RunWorkload(
            name="rb128-t12-dense",
            why="random-band at n=128, theorem-1.2 exponents, a record every step: diagnostics, "
            "CFL and budget dominate and fractional symbol_power is real work",
            alpha=0.3, beta=1.4, nu=0.05, eta=0.05, n=128, dt=1e-3,
            output_every=1, episode_steps=100,
            init="random-band", amplitude=2.0, band=8,
            budget_bound=1e-5, pool=16,
        ),
        PanelWorkload(
            name="lp128-panel",
            why="no stepping: one inequality panel per seeded n=128 state; uses spectral via "
            "multipliers and 2x-8x oversampled transforms instead of half-spectrum FFTs",
            n=128, band=8, bernstein_j=3,
        ),
    )
}


def spec_of(wl):
    """The fields that determine a workload's outputs (not its `why`)."""
    spec = asdict(wl)
    spec.pop("why")
    return spec


def load_references(wl):
    """Stored final records for `wl`'s pool; refuses stale references."""
    if wl.kind != "run":
        return None
    with open(REFERENCES) as fh:
        stored = json.load(fh)[wl.name]
    if stored["spec"] != spec_of(wl):
        raise RuntimeError(
            f"{REFERENCES.name} was made for another {wl.name} definition; "
            "run python3 perfbench/make_references.py"
        )
    return stored["entries"]


def reference_entry(wl, pool_seed):
    """Run one full episode and keep its final record."""
    tally = Tally()
    records = wl.episode(pool_seed, tally)
    if tally.failed:
        raise RuntimeError(f"{wl.name} seed {pool_seed}: {tally.problems}")
    return {
        "record": dict(zip(diagnostics.RECORD_COLUMNS, records[-1].as_row())),
        "budget_residual": tally.residuals[-1],
    }
