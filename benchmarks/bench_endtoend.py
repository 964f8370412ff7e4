#!/usr/bin/env python
"""End-to-end wall-clock benchmark: production Env vs per-word oracle.

Times complete ``CVM.run`` executions — instrumentation, coherence
protocol, network accounting, epoch detection, everything — for every
registered application on the production ``Env`` (fused clock charges,
range-native interval recording, big-int bitmap fills) and on
``repro.perf.OracleCVM``, whose processes run the paper's literal
one-analysis-call-per-word chain.  Each pair is checked for full
observable equivalence in the same breath: race reports, detector
statistics, access counters, traffic totals, per-process virtual-time
ledgers, and the final runtime.  In the JSON report ``scalar`` is the
oracle side and ``batched`` the production side.

Results go to ``BENCH_endtoend.json`` so the repository carries an
end-to-end perf trajectory across PRs, alongside the detection-engine
microbenchmark in ``BENCH_detection.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_endtoend.py           # full
    PYTHONPATH=src python benchmarks/bench_endtoend.py --quick   # CI smoke

Exit status is non-zero if any engine pair disagrees, or if the stress
workload's speedup over the oracle falls below the target
(``--min-speedup``, default 2x).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app  # noqa: E402
from repro.apps.sor import SorParams  # noqa: E402
from repro.perf import oracle_run, timeit_best  # noqa: E402

#: The stress row: SOR scaled to twice the default grid at 16 processes.
#: Range-dominated (row-wise sweeps over page-aligned arrays), so the
#: per-word oracle chain pays its full per-access toll — the workload the
#: production engine's range path exists for.
STRESS_PARAMS = SorParams(rows=96, cols=64, iterations=8)


def _workloads(quick: bool) -> List[Tuple[str, int, object, bool]]:
    """(app, nprocs, params, stress?) rows. queue_racy is pinned at its
    3-process schedule; every other app runs at 8 and 16."""
    if quick:
        # One regular kernel, one irregular bridge-backed app (heap
        # churn through the instrument→dsm bridge), plus the gated
        # stress row — so CI smoke covers every app class.
        return [("tsp", 8, None, False), ("hashtab", 8, None, False),
                ("sor", 16, STRESS_PARAMS, True)]
    rows: List[Tuple[str, int, object, bool]] = []
    for app in sorted(APPLICATIONS) + sorted(EXTRAS):
        if app == "queue_racy":
            rows.append((app, 3, None, False))
            continue
        rows.append((app, 8, None, False))
        rows.append((app, 16, None, False))
    rows.append(("sor", 16, STRESS_PARAMS, True))
    return rows


def _fingerprint(res) -> Tuple:
    """Everything observable about a run, hashable for equality."""
    return (
        tuple(r.key() for r in res.races),
        res.detector_stats,
        res.runtime_cycles,
        res.shared_instr_calls,
        res.traffic.total_messages,
        res.traffic.total_bytes,
        tuple(tuple(sorted((c.name, t) for c, t in ledger.totals.items()))
              for ledger in res.ledgers),
    )


def bench_workload(app: str, nprocs: int, params, stress: bool,
                   repeats: int) -> dict:
    spec = get_app(app)
    kept: dict = {}

    def run_with(fast: bool):
        if fast:
            res = spec.run(nprocs=nprocs, params=params)
        else:
            res = oracle_run(spec, nprocs=nprocs, params=params)
        kept[fast] = res
        return res

    ref = timeit_best(lambda: run_with(False), repeats=repeats,
                      label=f"{app}@{nprocs}:oracle")
    fast = timeit_best(lambda: run_with(True), repeats=repeats,
                       label=f"{app}@{nprocs}:production")
    equivalent = _fingerprint(kept[False]) == _fingerprint(kept[True])
    res = kept[True]
    return {
        "app": app,
        "nprocs": nprocs,
        "stress": stress,
        "params": repr(params) if params is not None else "default",
        "races": len(res.races),
        "shared_accesses": res.shared_instr_calls,
        "runtime_cycles": res.runtime_cycles,
        "scalar": ref.as_dict(),
        "batched": fast.as_dict(),
        "speedup": ref.best / fast.best,
        "equivalent": equivalent,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="two workloads, fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="wall-clock samples per engine (default 3, "
                             "quick 2)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required production speedup over the "
                             "oracle on the stress workload (default 2.0)")
    parser.add_argument("--output", default="BENCH_endtoend.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.quick else 3)
    rows = []
    for app, nprocs, params, stress in _workloads(args.quick):
        row = bench_workload(app, nprocs, params, stress, repeats)
        rows.append(row)
        print(f"{app}@{nprocs}{' [stress]' if stress else '':9s} "
              f"accesses={row['shared_accesses']:7d}  "
              f"oracle {row['scalar']['best_s'] * 1e3:8.1f} ms  "
              f"production {row['batched']['best_s'] * 1e3:8.1f} ms  "
              f"speedup {row['speedup']:5.2f}x  "
              f"{'OK' if row['equivalent'] else 'MISMATCH'}")

    stress_speedup = min(r["speedup"] for r in rows if r["stress"])
    report = {
        "benchmark": "end-to-end run wall clock",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": rows,
        "stress_speedup": stress_speedup,
        "min_speedup_required": args.min_speedup,
        "all_equivalent": all(r["equivalent"] for r in rows),
    }
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {args.output}")

    if not report["all_equivalent"]:
        print("FAIL: engines disagree", file=sys.stderr)
        return 1
    if stress_speedup < args.min_speedup:
        print(f"FAIL: stress speedup {stress_speedup:.2f}x < "
              f"{args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    print(f"PASS: stress speedup {stress_speedup:.2f}x "
          f"(>= {args.min_speedup:.1f}x), all engine pairs equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
