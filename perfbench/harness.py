"""Measurement, metrics and report of one benchmark run.

Untraced runs give the end-to-end metrics; traced runs install the
wrappers of `spans` and give the per-layer metrics.  The names and units
here are those of BENCHMARK.json (the self-test checks that they agree).
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from mhd2d import checkpoint, dynamics, littlewood_paley as lp

import spans
import workloads
from run import PINNED_THREADS, ROOT, SOURCE

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 7
# The untraced run's samples are cut into this many consecutive blocks, and
# each timing metric is the median over blocks.  A burst of contention from
# other tenants of the host then moves at most a minority of the blocks.
ROUNDS = 6
RHS_REPEATS = 10
STEP_PROBES = ((128, 10), (512, 3))  # (n, steps timed) for the size axis
PARTITION_REPEATS = 3
CHECKPOINT_REPEATS = 3
# The size-axis, RHS and checkpoint probes step this workload's equations.
PROBE = workloads.WORKLOADS["ot256-sparse"]

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "sample_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "spectral.fft_calls": "count",
    "spectral.fft_ms": "ms",
    "spectral.fft_share": "ratio",
    "spectral.oversampled_values_ms": "ms",
    "spectral.oversampled_values_calls": "count",
    "spectral.symbol_power_ms": "ms",
    "spectral.symbol_power_calls": "count",
    "spectral.symbol_power_repeat_frac": "ratio",
    "dynamics.step_ms": "ms",
    "dynamics.step_self_ms": "ms",
    "dynamics.ffts_per_stage": "count",
    "dynamics.rhs_stage_ms": "ms",
    "dynamics.step_ms.n128": "ms",
    "dynamics.step_ms.n512": "ms",
    "dynamics.cfl_ms": "ms",
    "dynamics.cfl_calls": "count",
    "diagnostics.record_ms": "ms",
    "diagnostics.record_ffts": "count",
    "diagnostics.record_share": "ratio",
    "diagnostics.budget_ms": "ms",
    "diagnostics.budget_calls": "count",
    "diagnostics.budget_residual": "ratio",
    "diagnostics.commutator_ms": "ms",
    "diagnostics.positivity_ms": "ms",
    "diagnostics.gn_ms": "ms",
    "diagnostics.cz_ms": "ms",
    "littlewood_paley.besov_ms": "ms",
    "littlewood_paley.bony_ms": "ms",
    "littlewood_paley.product_ms": "ms",
    "littlewood_paley.log_ratio_ms": "ms",
    "littlewood_paley.bernstein_ms": "ms",
    "littlewood_paley.partition_ms": "ms",
    "checkpoint.write_ms": "ms",
    "checkpoint.read_ms": "ms",
    "checkpoint.bytes": "bytes",
    "trace_overhead": "ratio",
}

# ROADMAP baseline (2 cores, numpy 2.4.6 pocketfft): metric -> (ms or count,
# grid size it was measured at; None for any size).
ROADMAP_BASELINE = {
    "dynamics.step_ms.n128": (14.0, None),
    "dynamics.step_ms": (79.0, 256),
    "dynamics.step_ms.n512": (335.0, None),
    "dynamics.rhs_stage_ms": (22.0, 256),
    "diagnostics.record_ms": (146.0, 256),
    "budget_integrand ms/call": (2.3, 256),
    "advective_dt_bound ms/call": (5.5, 256),
    "dynamics.ffts_per_stage": (16, None),
}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


# --- run header ----------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = []
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        sizes.append(f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''} {size}")
    return ", ".join(sizes) or "unknown"


def _fft_backend():
    for module in ("numpy.fft._pocketfft_umath", "numpy.fft._pocketfft_internal"):
        if importlib.util.find_spec(module):
            return f"pocketfft ({module})"
    return "unknown numpy.fft backend"


def _git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return f"unknown ({name})"


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SOURCE.rglob("*.py")))


def command(name, seed, seconds, traced):
    return [
        "python3", "perfbench/run.py", "--workload", name, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(int(traced)),
    ]


def header(wl, seed, seconds, traced):
    return [
        f"perfbench mhd2d: workload {wl.name} ({wl.kind}, regime tag {wl.tag}), "
        f"seed {seed}, {seconds:g} s, trace {int(traced)}",
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"FFT {_fft_backend()}",
        f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
        f"cpu {_cpu_model()}, cache {_cache_sizes()}",
        "threads " + " ".join(f"{k}={os.environ.get(k)}" for k in PINNED_THREADS),
        f"commit {_git_commit()}",
        "regenerate: " + " ".join(command(wl.name, seed, seconds, traced)),
        f"src lines {_src_lines()} (tracked, not gated)",
    ]


# --- untraced run: end-to-end metrics --------------------------------------------


def cold_start(name, seed):
    """Seconds from a fresh interpreter's first line to the first result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_start.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def measure_untraced(wl, seed, seconds, refs):
    spans.assert_untraced()
    setup = [cold_start(wl.name, seed) for _ in range(SETUP_REPEATS)]
    wl.first_result(seed)  # let lazy caches fill before timing
    tally = workloads.measure(wl, np.random.default_rng(seed), seconds, refs)
    spans.assert_untraced()
    blocks = [b for b in np.array_split(np.asarray(tally.sample_s), ROUNDS) if b.size]
    values = {
        "setup_s": statistics.median(setup),
        "samples_per_s": _median([b.size / b.sum() for b in blocks]),
        "sample_ms_p50": 1e3 * _median([float(np.median(b)) for b in blocks]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, values, _untraced_notes(wl, tally, values["samples_per_s"])


def _untraced_notes(wl, tally, rate):
    """Figures worth reading that are not gated metrics."""
    n = len(tally.sample_s)
    notes = [f"samples timed {n}, attempted {tally.attempted}, "
             f"failed_frac {tally.failed / max(tally.attempted, 1):.4g}"]
    if n:
        notes.append(f"sample_ms over all samples: p50 {1e3 * statistics.median(tally.sample_s):.6g}, "
                     f"mean {1e3 * statistics.fmean(tally.sample_s):.6g}")
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(tally.sample_s, n=100)[p - 1]
            notes.append(f"sample_ms_p{p} {1e3 * cut:.6g} ms ({n} samples)")
            break
    else:
        notes.append(f"no percentile above p50 has ten of the {n} samples beyond it")
    if wl.kind == "run" and rate:
        notes.append(f"wall_s_per_sim_t {1.0 / (rate * wl.output_every * wl.dt):.6g} s")
        notes.append(f"budget_residual {_median(tally.residuals):.6g} (median over episodes)")
    else:
        notes.append(f"panels_per_s {rate:.6g} 1/s")
    return notes + [f"failure: {p}" for p in tally.problems]


# --- traced run: per-layer metrics -----------------------------------------------


def _probes(wl, tracer, state):
    """Direct timings at fixed sizes, each under its own root span."""
    with tracer.span("probe.rhs"):
        for _ in range(RHS_REPEATS):
            dynamics.vorticity_rhs(state)
    for size, reps in STEP_PROBES:
        cfg = PROBE.config(n=size)
        st = dynamics.step(PROBE.initial(0, n=size), cfg)  # fills the factor cache
        with tracer.span(f"probe.step.n{size}"):
            for _ in range(reps):
                st = dynamics.step(st, cfg)
    for _ in range(PARTITION_REPEATS):
        with tracer.span("probe.partition"):
            lp.DyadicPartition(state.grid)
    cfg = wl.config() if wl.kind == "run" else PROBE.config(n=state.grid.n)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"checkpoint-{os.getpid()}.bin"
    try:
        for _ in range(CHECKPOINT_REPEATS):
            with tracer.span("probe.checkpoint"):
                checkpoint.write_checkpoint(path, state, cfg)
                checkpoint.read_checkpoint(path)
        return path.stat().st_size
    finally:
        path.unlink(missing_ok=True)


def measure_traced(wl, seed, seconds, refs):
    rng = np.random.default_rng(seed)
    wl.first_result(seed)
    base = workloads.measure(wl, rng, seconds / 3, refs)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tally = workloads.measure(wl, rng, 2 * seconds / 3, refs, tracer.span)
        ckpt_bytes = _probes(wl, tracer, tally.last_state)
    finally:
        tracer.uninstall()
    spans.assert_untraced()
    tab = spans.SpanTable(tracer)
    values = layer_metrics(tab, tally, base, ckpt_bytes)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    tracer.dump(path)
    tally.attempted += base.attempted
    tally.failed += base.failed
    tally.problems += base.problems
    notes = [f"spans {len(tab.names)} written to {path.relative_to(ROOT)}"]
    notes += _baseline_notes(wl, tab, values)
    return tally, values, notes + [f"failure: {p}" for p in tally.problems]


def layer_metrics(tab, tally, base, ckpt_bytes):
    samples = tab.under("sample", "sample")
    n_samples = max(len(samples), 1)
    total = sum(tab.dur[i] for i in samples) or 1.0

    def loop(name):
        return tab.under("sample", name)

    def per_sample_ms(name):
        return 1e3 * sum(tab.dur[i] for i in loop(name)) / n_samples

    def calls(name):
        return len(loop(name)) / n_samples

    def median_ms(idx):
        return 1e3 * _median([tab.dur[i] for i in idx])

    seen, repeats = set(), 0
    for i in loop("spectral.symbol_power"):
        repeats += tab.keys[i] in seen
        seen.add(tab.keys[i])
    steps = loop("dynamics.step")
    records = loop("diagnostics.record")
    values = {
        "spectral.fft_calls": calls("spectral.fft"),
        "spectral.fft_ms": per_sample_ms("spectral.fft"),
        "spectral.fft_share": sum(tab.dur[i] for i in loop("spectral.fft")) / total,
        "spectral.oversampled_values_ms": per_sample_ms("spectral.oversampled_values"),
        "spectral.oversampled_values_calls": calls("spectral.oversampled_values"),
        "spectral.symbol_power_ms": per_sample_ms("spectral.symbol_power"),
        "spectral.symbol_power_calls": calls("spectral.symbol_power"),
        "spectral.symbol_power_repeat_frac": repeats / max(len(loop("spectral.symbol_power")), 1),
        "dynamics.step_ms": median_ms(steps),
        "dynamics.step_self_ms": 1e3 * _median([tab.self_time(i) for i in steps]),
        "dynamics.ffts_per_stage": _median(tab.count_below("dynamics.rhs", "spectral.fft")),
        "dynamics.rhs_stage_ms": median_ms(tab.under("probe.rhs", "dynamics.rhs")),
    }
    for size, _ in STEP_PROBES:
        values[f"dynamics.step_ms.n{size}"] = median_ms(tab.under(f"probe.step.n{size}", "dynamics.step"))
    values.update({
        "dynamics.cfl_ms": per_sample_ms("dynamics.cfl"),
        "dynamics.cfl_calls": calls("dynamics.cfl"),
        "diagnostics.record_ms": median_ms(records),
        "diagnostics.record_ffts": _median(tab.count_below("diagnostics.record", "spectral.fft")),
        "diagnostics.record_share": sum(tab.dur[i] for i in records) / total,
        "diagnostics.budget_ms": per_sample_ms("diagnostics.budget"),
        "diagnostics.budget_calls": calls("diagnostics.budget"),
        "diagnostics.budget_residual": _median(tally.residuals),
    })
    for name in ("commutator", "positivity", "gn", "cz"):
        values[f"diagnostics.{name}_ms"] = per_sample_ms(f"diagnostics.{name}")
    for name in ("besov", "bony", "product", "log_ratio", "bernstein"):
        values[f"littlewood_paley.{name}_ms"] = per_sample_ms(f"littlewood_paley.{name}")
    values.update({
        "littlewood_paley.partition_ms": median_ms(tab.under("probe.partition", "probe.partition")),
        "checkpoint.write_ms": median_ms(tab.under("probe.checkpoint", "checkpoint.write")),
        "checkpoint.read_ms": median_ms(tab.under("probe.checkpoint", "checkpoint.read")),
        "checkpoint.bytes": float(ckpt_bytes),
        "trace_overhead": _median(tally.sample_s) / _median(base.sample_s) if base.sample_s else 0.0,
    })
    return values


def _baseline_notes(wl, tab, values):
    """The traced run against the ROADMAP baseline table, where sizes match."""
    per_call = {
        "budget_integrand ms/call": 1e3 * _median([tab.dur[i] for i in tab.under("sample", "diagnostics.budget")]),
        "advective_dt_bound ms/call": 1e3 * _median([tab.dur[i] for i in tab.under("sample", "dynamics.cfl")]),
    }
    notes = []
    for row, (roadmap, size) in ROADMAP_BASELINE.items():
        if size not in (None, wl.n):
            continue
        got = values.get(row, per_call.get(row))
        if got:
            notes.append(f"baseline {row}: roadmap {roadmap:g}, measured {got:.4g} ({got / roadmap:.2f}x)")
    return notes


# --- entry points ---------------------------------------------------------------


def run_one(name, seed, seconds, traced):
    wl = workloads.WORKLOADS.get(name)
    if wl is None:
        sys.exit(f"perfbench: unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    for line in header(wl, seed, seconds, traced):
        print("# " + line, flush=True)
    measure_fn, units = (measure_traced, PER_LAYER) if traced else (measure_untraced, END_TO_END)
    tally, values, notes = measure_fn(wl, seed, seconds, workloads.load_references(wl))
    for note in notes:
        print("# " + note)
    out = result(tally, values, units)
    for k, m in out["metrics"].items():
        print(f"{k:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


def result(tally, values, units):
    """The result object, printed as the last line of a run."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }


def run_all(seed, seconds):
    """Every workload untraced, each in a fresh process so that peak memory
    and caches do not carry over; prints each metric by name and unit."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py")] + command(name, seed, seconds, False)[2:],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        out = json.loads(proc.stdout.splitlines()[-1])
        status |= not out["correct"]
        rows.append((name, out))
    print("\nworkload          metric               value  unit")
    for name, out in rows:
        for k, m in out["metrics"].items():
            print(f"{name:17s} {k:15s} {m['value']:12.6g}  {m['unit']}")
        print(f"{name:17s} {'failed':15s} {out['failed']:12d}  of {out['attempted']}")
    return status
