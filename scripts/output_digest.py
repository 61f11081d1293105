"""Print a SHA-256 digest of each benchmark output, to compare two trees bit
for bit.

One line per output, `<workload> <entry> <item> <sha256>`:

* every record row, and the final w and j, of `rb128-t12-dense` pool
  entries 0-2 and of `ot256-sparse` entries 0-1, each a full episode;
* each `lp128-panel` output on the inputs of seeds 2024-2031, with the
  Bony parts hashed by the bytes of their samples, and on the same inputs
  every field of the logarithmic inequality's report (`log_report`) and
  of both Bernstein ratios (`bernstein_ratios`), of which the panel keeps
  one field each, and both Bernstein ratios of the band-8 f in the ball
  of radius 2^3 (`bernstein_ball`), as the panel's block lies in an
  annulus.

Floats are hashed by their float64 bytes, so two trees print the same
line only where the values agree to the bit.  The workloads come from
perfbench/workloads.py, which this script only imports; mhd2d is read
from this checkout's src/.

    python3 scripts/output_digest.py > digest.txt
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mhd2d import dynamics  # noqa: E402
from mhd2d import littlewood_paley as lp  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_ENTRIES = {"rb128-t12-dense": range(3), "ot256-sparse": range(2)}
PANEL_SEEDS = range(2024, 2032)


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def run_lines(wl, entry):
    for k, (state, rec) in enumerate(dynamics.run(wl.config(), wl.initial(entry))):
        yield f"{wl.name} {entry} record{k} {digest(np.array(rec.as_row()))}"
    yield f"{wl.name} {entry} w {digest(state.w.coef)}"
    yield f"{wl.name} {entry} j {digest(state.j.coef)}"


def panel_lines(wl, seed):
    f, g, block = wl.inputs(np.random.default_rng(seed))
    out = wl.panel(f, g, block)
    for key, value in out.items():
        if key == "bony":
            value = [part.values for part in value]
        yield f"{wl.name} {seed} {key} {digest(np.asarray(value, float))}"
    reports = {
        "log_report": lp.log_inequality_ratio(f, 3.0),
        "bernstein_ratios": lp.bernstein_ratio(block, wl.bernstein_j, 1),
        "bernstein_ball": lp.bernstein_ratio(f, 3, 1),
    }
    for key, report in reports.items():
        yield f"{wl.name} {seed} {key} {digest(np.array(dataclasses.astuple(report), float))}"


def main():
    for name, entries in RUN_ENTRIES.items():
        for entry in entries:
            print(*run_lines(WORKLOADS[name], entry), sep="\n")
    for seed in PANEL_SEEDS:
        print(*panel_lines(WORKLOADS["lp128-panel"], seed), sep="\n")


if __name__ == "__main__":
    main()
