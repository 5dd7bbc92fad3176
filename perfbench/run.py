"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload align_1k --seed 1 --seconds 20 --trace 0

Workloads: align_1k, suite_paper, topology_4k, serve_http (see README.md).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics from spans recorded around the program's
layers, plus the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check prints ``"correct": false`` and exits with status 1; a run
that cannot start (no program to measure) exits with status 2 and prints no
result.  Any other error, in the harness or in the program under test,
ends the run with a traceback and status 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.common import apply_thread_caps  # noqa: E402

apply_thread_caps()

WORKLOADS = ("align_1k", "suite_paper", "topology_4k", "serve_http")


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from perfbench import core_workloads, serve_workload

    if name == "align_1k":
        return core_workloads.run_align_1k(seed, seconds, trace)
    if name == "suite_paper":
        return core_workloads.run_suite_paper(seed, seconds, trace, workdir)
    if name == "topology_4k":
        return core_workloads.run_topology_4k(seed, seconds, trace)
    return serve_workload.run_serve_http(seed, seconds, trace, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: cannot run: no program to measure, "
              f"{ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from perfbench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS

    # A terminated run still stops its server and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    started = time.perf_counter()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"run {time.perf_counter() - started:.1f} s")
    for line in outcome.notes:
        print(f"  {line}")
    for name, unit in units.items():
        print(f"  {name:<32} {outcome.metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    if not outcome.correct:
        print(f"perfbench: correctness check failed on {args.workload}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
