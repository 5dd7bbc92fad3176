"""Steadiness report: run workloads k times on seeds 1..k and show spread.

    python3 perfbench/steadiness.py --runs 10 --passes 2       # acceptance check
    python3 perfbench/steadiness.py --runs 5 --workload serve_http
    python3 perfbench/steadiness.py --runs 5 --workload serve_http --trace 1
    python3 perfbench/steadiness.py --runs 1                   # every metric once

Every run lasts BENCHMARK.json's ``run_seconds``.  A pass runs every chosen
workload on seeds 1..k; ``--passes 2`` repeats the whole pass.  For each
workload it prints the first run's report (sample counts, correctness
details, layer shares) and, per metric and pass, the unit, the median, the
quartiles (``statistics.quantiles`` with n=4) and (q3 - q1) / median beside
the metric's bound from BENCHMARK.json: "ok" below a third of the bound,
"within bound" up to it, "WIDE" above it.  With several passes it also
prints how much worse each later pass's median is than the first's, in the
metric's own direction, and whether that stays within the bound.  Every
end-to-end metric, ``setup_s`` included, counts towards the verdict; the
exit status is 0 only when every spread and every pass comparison is within
its bound.  It also records the machine and library facts a reading
depends on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.common import RSS_METHOD, THREAD_CAP, THREAD_CAP_VARS  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 300


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {name: THREAD_CAP for name in THREAD_CAP_VARS},
        "rss_method": RSS_METHOD,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One run's parsed result line, the human-readable lines before it and
    the run's wall time in seconds, set-up and checks included."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1], wall


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    metrics = {} if args.trace else {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or WORKLOADS

    print(json.dumps(environment(), indent=2))
    # values[workload][metric] holds one list of run values per pass.
    values: dict = {w: {} for w in workloads}
    units: dict = {}
    first_report: dict = {}
    walls: dict = {w: [] for w in workloads}
    for number in range(args.passes):
        for workload in workloads:
            for seed in range(1, args.runs + 1):
                result, report, wall = run_once(workload, seed, seconds, args.trace)
                walls[workload].append(wall)
                if not result["correct"] or result["failed"]:
                    raise RuntimeError(f"{workload} seed {seed}: {result}")
                first_report.setdefault(workload, report)
                for name, metric in result["metrics"].items():
                    passes = values[workload].setdefault(name, [[] for _ in range(args.passes)])
                    passes[number].append(metric["value"])
                    units[name] = metric["unit"]

    steady = True
    for workload in workloads:
        print(f"\n{workload}: {args.passes} x {args.runs} runs of {seconds} s, "
              f"trace {args.trace}")
        print("\n".join(first_report[workload]))
        print(f"  run wall time: median {statistics.median(walls[workload]):.1f} s, "
              f"max {max(walls[workload]):.1f} s over {len(walls[workload])} runs")
        if args.runs == 1:
            for name, passes in values[workload].items():
                print(f"  {name:<30} {units[name]:<8} "
                      + " ".join(f"{series[0]:12.6g}" for series in passes))
            continue
        print(f"  {'metric':<30} {'unit':<8} {'pass':>4} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for name, passes in values[workload].items():
            bound = metrics[name]["bound"] if name in metrics else None
            medians = []
            for number, series in enumerate(passes, 1):
                q1, mid, q3 = statistics.quantiles(series, n=4)
                medians.append(mid)
                spread = (q3 - q1) / mid if mid else 0.0
                verdict = ""
                if bound is not None:
                    steady &= spread <= bound
                    verdict = ("ok" if spread < bound / 3 else
                               "within bound" if spread <= bound else "WIDE")
                print(f"  {name:<30} {units[name]:<8} {number:>4} {mid:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:8.4f} {bound if bound is not None else '':>6} "
                      f"{verdict}")
                print(f"  {'':<44} runs: {' '.join(f'{v:.6g}' for v in series)}")
            if bound is not None and len(medians) > 1:
                worst = max(worse_by(medians[0], later, metrics[name]["better"])
                            for later in medians[1:])
                agree = worst <= bound
                steady &= agree
                print(f"  {'':<44} later pass worse by {worst:+.4f} of pass 1's median: "
                      f"{'agrees' if agree else 'DISAGREES'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
