"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

* BENCHMARK.json names the workloads and metrics the harness emits, with
  the same units.
* Every workload runs at a tiny size, untraced and traced, with no failed
  sample and every metric present.
* A corrupted sample is counted as failed: a perturbed stored reference
  for the run workloads, a perturbed `cz_ratio` for the panel.
* In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def tiny(wl):
    if wl.kind == "run":
        return dataclasses.replace(wl, n=32, output_every=2, episode_steps=4, pool=2)
    return dataclasses.replace(wl, n=32, band=4, bernstein_j=2)


def check_contract(harness, workloads):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"]: w["why"] for w in bench["workloads"]}
          == {wl.name: wl.why for wl in workloads.WORKLOADS.values()},
          "BENCHMARK.json workloads and their reasons are the harness workloads")
    for key, emitted in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        check(declared == emitted, f"BENCHMARK.json {key} names and units match the harness")


def check_workload(harness, workloads, wl):
    refs = {str(k): workloads.reference_entry(wl, k) for k in range(wl.pool)} if wl.kind == "run" else None
    for traced, measure_fn, units in (
        (False, harness.measure_untraced, harness.END_TO_END),
        (True, harness.measure_traced, harness.PER_LAYER),
    ):
        tally, values, _ = measure_fn(wl, 1, 1.5, refs)
        result = harness.result(tally, values, units)
        label = f"{wl.name} tiny, trace {int(traced)}"
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{label}: {result['attempted']} samples, none failed")
        check(list(result["metrics"]) == list(units), f"{label}: every metric emitted")
        check(all(math.isfinite(m["value"]) for m in result["metrics"].values()), f"{label}: finite values")
        if traced:
            check(values["dynamics.ffts_per_stage"] == 16, f"{label}: 16 FFTs per RHS stage")
            if wl.kind == "run":
                check(values["diagnostics.record_ffts"] == 5, f"{label}: 5 FFTs per record")
    return refs


def check_gate(workloads, wl, refs):
    """A corrupted sample must show up in `failed`."""
    import numpy as np
    from mhd2d import diagnostics

    if wl.kind == "run":
        bad = json.loads(json.dumps(refs))
        for entry in bad.values():
            entry["record"]["energy_u"] *= 1.0 + 1e-6
        tally = workloads.measure(wl, np.random.default_rng(1), 1.0, bad)
        check(tally.failed >= 1 and tally.failed <= tally.attempted,
              f"{wl.name} tiny: perturbed reference fails {tally.failed} of {tally.attempted}")
        return
    honest = diagnostics.cz_ratio
    diagnostics.cz_ratio = lambda w, p: honest(w, p) * (1.0 + 1e-6)
    try:
        tally = workloads.measure(wl, np.random.default_rng(1), 1.0)
    finally:
        diagnostics.cz_ratio = honest
    check(tally.attempted >= 1 and tally.failed == tally.attempted,
          f"{wl.name} tiny: perturbed cz_ratio fails {tally.failed} of {tally.attempted}")


def check_bare_directory(harness):
    bare = harness.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(harness.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lp128-panel",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          f"bare directory: exit {proc.returncode}, no result printed")


def main():
    run.prepare()
    import harness
    import workloads

    harness.SETUP_REPEATS = 1
    check_contract(harness, workloads)
    for wl in workloads.WORKLOADS.values():
        small = tiny(wl)
        refs = check_workload(harness, workloads, small)
        check_gate(workloads, small, refs)
    check_bare_directory(harness)
    print("selftest passed")


if __name__ == "__main__":
    main()
