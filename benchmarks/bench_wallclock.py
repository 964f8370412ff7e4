#!/usr/bin/env python
"""Wall-clock benchmark of the detector's candidates step.

Captures the interval batches that real application runs hand to the
barrier master (``repro.perf.capture_epochs``), then replays each batch
through the candidates step's oracle — the paper's naive pair search,
overlap probes and check list — and through the production candidates
step (window scan / inverted index, chosen per epoch), timing both and
checking in the same breath that model comparisons, concurrent pairs,
probe work and check lists are identical.  The whole detector's replay
time (``time_detection``) is reported alongside.  Results go to
``BENCH_detection.json`` so the repository carries a perf trajectory
across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py           # full
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick   # CI smoke

Exit status is non-zero if the production step disagrees with the
oracle on any epoch, or if the stress workload's speedup falls below the
target (``--min-speedup``, default 3x).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app  # noqa: E402
from repro.perf import (candidate_key, capture_epochs,  # noqa: E402
                        oracle_candidates, production_candidates,
                        time_detection, timeit_best)

#: (app, nprocs, stress?) — the stress row is the acceptance gate: a
#: barrier-synchronized workload at paper-scale epoch counts, where the
#: naive pair search's quadratic term dominates.
FULL_WORKLOADS = [
    ("tsp", 8, False),
    ("tsp", 16, False),
    ("water", 8, False),
    ("water", 16, True),
]
QUICK_WORKLOADS = [
    ("water", 8, True),
]


def bench_workload(app: str, nprocs: int, stress: bool,
                   repeats: int) -> dict:
    spec = get_app(app)
    t0 = time.perf_counter()
    run, epochs = capture_epochs(spec, nprocs=nprocs)
    capture_s = time.perf_counter() - t0
    batches = [ep.intervals for ep in epochs]
    label = f"{app}@{nprocs}"
    oracle = timeit_best(lambda: [oracle_candidates(b) for b in batches],
                         repeats=repeats, label=f"{label}:oracle")
    production = timeit_best(
        lambda: [production_candidates(b) for b in batches],
        repeats=repeats, label=f"{label}:candidates")
    equivalent = all(candidate_key(oracle_candidates(b))
                     == candidate_key(production_candidates(b))
                     for b in batches)
    detection = time_detection(epochs, run.config.page_size_words, nprocs,
                               cost_model=run.config.cost_model,
                               repeats=repeats, label=f"{label}:detection")
    return {
        "app": app,
        "nprocs": nprocs,
        "stress": stress,
        "epochs": len(epochs),
        "intervals": sum(len(b) for b in batches),
        "races": len(detection.races),
        "capture_s": capture_s,
        "oracle": oracle.as_dict(),
        "candidates": production.as_dict(),
        "detection": detection.sample.as_dict(),
        "speedup": oracle.best / production.best,
        "equivalent": equivalent,
        "model_comparisons": detection.stats.interval_comparisons,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="single small workload, fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="wall-clock samples per side (default 5, "
                             "quick 2)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required candidates-step speedup over the "
                             "oracle on the stress workload (default 3.0)")
    parser.add_argument("--output", default="BENCH_detection.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS
    repeats = args.repeats or (2 if args.quick else 5)

    rows = []
    for app, nprocs, stress in workloads:
        row = bench_workload(app, nprocs, stress, repeats)
        rows.append(row)
        print(f"{app}@{nprocs}{' [stress]' if stress else '':9s} "
              f"epochs={row['epochs']:3d} intervals={row['intervals']:5d}  "
              f"oracle {row['oracle']['best_s'] * 1e3:8.1f} ms  "
              f"candidates {row['candidates']['best_s'] * 1e3:8.1f} ms  "
              f"speedup {row['speedup']:5.2f}x  "
              f"detection {row['detection']['best_s'] * 1e3:8.1f} ms  "
              f"{'OK' if row['equivalent'] else 'MISMATCH'}")

    stress_rows = [r for r in rows if r["stress"]]
    stress_speedup = min(r["speedup"] for r in stress_rows)
    report = {
        "benchmark": "candidates-step wall clock vs oracle",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": rows,
        "stress_speedup": stress_speedup,
        "min_speedup_required": args.min_speedup,
        "all_equivalent": all(r["equivalent"] for r in rows),
    }
    # The scale-out benchmark (bench_detection_scaleout.py) owns the
    # "scaleout" and "coarse_filter" keys of the shared file; carry them
    # through a rewrite.
    if os.path.exists(args.output):
        with open(args.output) as f:
            previous = json.load(f)
        for key in ("scaleout", "coarse_filter"):
            if key in previous:
                report[key] = previous[key]
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {args.output}")

    if not report["all_equivalent"]:
        print("FAIL: candidates step disagrees with the oracle",
              file=sys.stderr)
        return 1
    if stress_speedup < args.min_speedup:
        print(f"FAIL: stress speedup {stress_speedup:.2f}x < "
              f"{args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    print(f"PASS: stress speedup {stress_speedup:.2f}x "
          f"(>= {args.min_speedup:.1f}x), all epochs equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
