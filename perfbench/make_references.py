"""Regenerate references.json: the final record of one full episode for
every pool entry of every run workload.

    python3 perfbench/make_references.py

Run it only when a workload definition changes; the benchmark refuses
references made for another definition.
"""

import json

import run


def main():
    run.prepare()
    import workloads

    out = {}
    for wl in workloads.WORKLOADS.values():
        if wl.kind != "run":
            continue
        entries = {str(k): workloads.reference_entry(wl, k) for k in range(wl.pool)}
        out[wl.name] = {"spec": workloads.spec_of(wl), "entries": entries}
        worst = max(e["budget_residual"] for e in entries.values())
        print(f"{wl.name}: {wl.pool} entries, worst budget residual {worst:.3g}")
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
