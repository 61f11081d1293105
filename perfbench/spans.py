"""Outside-in tracing for the traced run.

`Tracer.install()` replaces `np.fft.rfft2`/`irfft2` and the public
functions of the mhd2d modules with wrappers that record one span per call:
name, start, end and parent.  The library is not edited: its internal calls
go through module attributes or module globals, so they reach the wrappers
too.  Spans stay in memory until `dump()` at the end of the run.
`uninstall()` puts every original back; `assert_untraced()` proves the
untraced run carries no wrapper.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

from mhd2d import checkpoint, diagnostics, dynamics, littlewood_paley as lp
from mhd2d import spectral as sp

MARK = "__perfbench_original__"

# (module, attribute, span name); both FFT directions share one name.
TARGETS = (
    (np.fft, "rfft2", "spectral.fft"),
    (np.fft, "irfft2", "spectral.fft"),
    (sp, "oversampled_values", "spectral.oversampled_values"),
    (sp, "symbol_power", "spectral.symbol_power"),
    (dynamics, "step", "dynamics.step"),
    (dynamics, "vorticity_rhs", "dynamics.rhs"),
    (dynamics, "advective_dt_bound", "dynamics.cfl"),
    (diagnostics, "compute_record", "diagnostics.record"),
    (diagnostics, "budget_integrand", "diagnostics.budget"),
    (diagnostics, "commutator_ratio", "diagnostics.commutator"),
    (diagnostics, "positivity_check", "diagnostics.positivity"),
    (diagnostics, "gn_ratio", "diagnostics.gn"),
    (diagnostics, "cz_ratio", "diagnostics.cz"),
    (lp, "besov_norm", "littlewood_paley.besov"),
    (lp, "bony_decompose", "littlewood_paley.bony"),
    (lp, "product_estimate_ratio", "littlewood_paley.product"),
    (lp, "log_inequality_ratio", "littlewood_paley.log_ratio"),
    (lp, "bernstein_ratio", "littlewood_paley.bernstein"),
    (checkpoint, "write_checkpoint", "checkpoint.write"),
    (checkpoint, "read_checkpoint", "checkpoint.read"),
)


def _symbol_key(grid, gamma):
    return (grid.n, float(gamma))


# Spans whose arguments are kept, to tell repeated work from new work.
KEYS = {"spectral.symbol_power": _symbol_key}


def assert_untraced():
    for module, attr, _ in TARGETS:
        if hasattr(getattr(module, attr), MARK):
            raise RuntimeError(f"{module.__name__}.{attr} is still wrapped")


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.keys = {}  # span index -> call key, for names in KEYS
        self._stack = []
        self._saved = []

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def _wrap(self, name, fn):
        keyfn = KEYS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                if keyfn:
                    self.keys[idx] = keyfn(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path):
        """Write every span: [name, start_s, end_s, parent], times from the
        first span, parent -1 for a root."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [name, round(s - t0, 9), round(e - t0, 9), p]
            for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh)


class SpanTable:
    """Read-only views of a tracer's spans: durations, self time, roots."""

    def __init__(self, tracer):
        self.names, self.parents, self.keys = tracer.names, tracer.parents, tracer.keys
        n = len(self.names)
        self.dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        self.child = [0.0] * n
        root = list(range(n))
        self._groups = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                self.child[p] += self.dur[i]
                root[i] = root[p]
            self._groups.setdefault((self.names[root[i]], self.names[i]), []).append(i)

    def self_time(self, i):
        return self.dur[i] - self.child[i]

    def under(self, root_name, name):
        """Indices of spans called `name` in a tree rooted at a `root_name`
        span (the roots themselves when the names are equal)."""
        return self._groups.get((root_name, name), [])

    def count_below(self, ancestor, name):
        """For each span called `ancestor`: how many `name` spans lie under it."""
        names, parents = self.names, self.parents
        counts = {i: 0 for i, nm in enumerate(names) if nm == ancestor}
        for i, nm in enumerate(names):
            if nm != name:
                continue
            p = parents[i]
            while p >= 0 and names[p] != ancestor:
                p = parents[p]
            if p >= 0:
                counts[p] += 1
        return list(counts.values())
