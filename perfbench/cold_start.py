"""Cold-start probe: prints the seconds from this script's first line to
the workload's first result (imports, grid, partition, initial state and
the first record or panel).

    python3 perfbench/cold_start.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402


def main():
    run.prepare()
    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name].first_result(seed)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
