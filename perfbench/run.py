"""Run one benchmark workload against the ``repro`` sources of this checkout.

Usage, from the root of the checkout::

    python3 perfbench/run.py --workload sweep-n1e5 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer
metrics.  A human-readable report comes first: the pinned environment,
every metric by name and unit, the check verdicts and, when traced, the
layer breakdown.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout and nowhere else;
without it the run exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Thread-pool variables of the BLAS and OpenMP runtimes numpy/scipy may
#: load; each is capped at the CPUs this process may run on.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> dict:
    """Cap every thread-pool variable at the usable CPU count.

    Must run before numpy is imported: the runtimes read these once.
    """
    cpus = len(os.sched_getaffinity(0))
    pinned = {}
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cpus))
        except ValueError:
            wanted = cpus
        os.environ[var] = str(max(1, min(wanted, cpus)))
        pinned[var] = os.environ[var]
    pinned["cpus"] = cpus
    return pinned


def import_program():
    """Put this checkout's ``src/`` first on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    pinned = pin_threads()
    # The fingerprint asks git for the commit; keep git inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    import tracemalloc

    if tracemalloc.is_tracing():  # PYTHONTRACEMALLOC would skew every timing
        tracemalloc.stop()
    import_program()
    from repro import obs

    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps({**obs.environment_fingerprint(), "threads": pinned}))

    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracemalloc.is_tracing():
        raise SystemExit("error: tracemalloc was switched on during the run")

    metrics = outcome.per_layer if args.trace else outcome.end_to_end
    for note in outcome.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for check in outcome.checks:
        verdict = "ok" if check.ok else "FAILED"
        print(f"check {check.name}: {verdict} ({check.attempted} judged; {check.detail})")
    attempted = sum(check.attempted for check in outcome.checks)
    failed = sum(check.failed for check in outcome.checks)
    print(f"operations attempted {attempted}, failed {failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
