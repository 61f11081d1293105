"""What the benchmark in perfbench/ calls of mhd2d still exists and works.

perfbench/ is put on sys.path and its modules are imported directly;
run.py is not imported, because it sets environment variables.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

from mhd2d import diagnostics, dynamics, littlewood_paley as lp  # noqa: E402
from mhd2d import spectral as sp  # noqa: E402


def test_traced_targets_resolve():
    missing = [f"{m.__name__}.{a}" for m, a, _ in spans.TARGETS if not callable(getattr(m, a, None))]
    assert missing == []


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS.values() if w.kind == "run"])
def test_references_match_the_workload_spec(name):
    wl = workloads.WORKLOADS[name]
    entries = workloads.load_references(wl)
    assert sorted(entries) == sorted(str(k) for k in range(wl.pool))


def test_reference_columns_are_record_columns():
    with open(workloads.REFERENCES) as fh:
        stored = json.load(fh)
    columns = {col for wl in stored.values() for e in wl["entries"].values() for col in e["record"]}
    assert columns and columns <= set(diagnostics.RECORD_COLUMNS)


def _full_episode_meets_reference(name):
    # One full episode, every record checked and the final record compared
    # with references.json at workloads.REF_RTOL.
    wl = workloads.WORKLOADS[name]
    tally = workloads.Tally()
    wl.episode(0, tally, ref=workloads.load_references(wl)["0"])
    assert tally.failed == 0, tally.problems
    # Every record arrived, so the episode ran to its end and met the reference.
    assert tally.attempted == wl.episode_steps // wl.output_every + 1


def test_rb128_pool_entry_0_matches_its_reference():
    _full_episode_meets_reference("rb128-t12-dense")


def test_ot256_pool_entry_0_matches_its_reference():
    # The n = 256 step path; a short benchmark run may finish no whole
    # ot256 episode and so compare none with its reference.
    _full_episode_meets_reference("ot256-sparse")


def test_dyadic_partition_builds_from_a_grid():
    # The harness's partition probe times DyadicPartition(grid).
    part = lp.DyadicPartition(sp.TorusGrid(128))
    assert part.phi.shape == (part.j_max + 1, 128, 128)


def test_perturbed_orszag_tang_initial_state_steps():
    # initial() builds its fields through SpectralField(grid, coef, True).
    wl = workloads.WORKLOADS["ot256-sparse"]
    state = wl.initial(0, n=32)
    out = dynamics.step(state, wl.config(n=32))
    assert out.t == pytest.approx(wl.dt)
    assert out.w.dealiased and out.j.dealiased


def test_lp128_panel_passes_its_check_at_n64():
    # The panel calls most of the inequality diagnostics; a broken call
    # or a failed identity shows here before the benchmark runs it.
    wl = dataclasses.replace(workloads.WORKLOADS["lp128-panel"], n=64)
    f, g, block = wl.inputs(np.random.default_rng(0))
    assert wl.check(f, g, wl.panel(f, g, block)) is None
