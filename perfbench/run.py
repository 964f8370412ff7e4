"""Repository benchmark: one workload, timed end to end or traced by layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-expected

``--trace 0`` times whole runs with no tracing and reports the end-to-end
metrics; ``--trace 1`` adds a traced phase and reports the per-layer
metrics.  Both check every run's output (see ``workloads.OutputCheck``),
print a readable summary, and end with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when every output check passed.
``--write-expected`` reruns every workload on the default seed and
rewrites ``expected.json``; do that only for a change meant to alter the
program's outputs.  README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import reference  # noqa: E402
from perfbench.layers import (PER_LAYER, layer_metrics,  # noqa: E402
                              make_tracer, traced_run)
from perfbench.workloads import (DEFAULT_SEED, EXPECTED_PATH,  # noqa: E402
                                 WORKLOADS, OutputCheck, Workload,
                                 fingerprint, run_once)

#: Fresh interpreters started per invocation to measure ``setup_s``.
SETUP_PROBES = 9
#: Reference-kernel samples taken after each timed run.
REF_SAMPLES = 3
#: Fewest timed runs, even when one run outlasts ``--seconds``.
MIN_RUNS = 3

#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {"run_s": "s", "words_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "vcycles": "cycles"}


def pin_to_one_cpu() -> Optional[int]:
    """Restrict this process, and the interpreters it starts, to one CPU.

    The simulation is sequential: one thread holds the scheduler token at
    a time.  On several CPUs, the threads each handoff wakes run on the
    other CPUs and contend for the interpreter lock with the token holder,
    so a run's time depended on what else the host was running (about 2x
    between an idle and a loaded 2-CPU host).  On one CPU that contention
    is gone.  The last allowed CPU is taken, as the first one usually
    serves more interrupts."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup_probe(work: Workload, seed: int) -> float:
    """One ``setup_s`` sample: fresh interpreter to the first ``CVM.run``."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), work.name,
         str(seed)], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def untraced_run(work: Workload, seed: int, check: OutputCheck) -> float:
    """One checked run with no tracing; returns its wall time."""
    gc.collect()
    t0 = perf_counter()
    res, _cvm = run_once(work, seed)
    wall = perf_counter() - t0
    check.repeat(fingerprint(res))
    return wall


def timed_runs(work: Workload, seed: int, check: OutputCheck,
               seconds: float, between: Callable[[], None]) -> List[float]:
    """Run untraced for ``seconds``; return each run's wall time.
    ``between`` is called after each run, outside the window."""
    times: List[float] = []
    end = perf_counter() + seconds
    while perf_counter() < end or len(times) < MIN_RUNS:
        times.append(untraced_run(work, seed, check))
        t1 = perf_counter()
        between()
        end += perf_counter() - t1
    return times


def first_run(work: Workload, seed: int, check: OutputCheck) -> Any:
    """The warm-up run: fills caches and is checked against the committed
    outputs; for ``water-chaos`` also runs ``water-locks`` to compare."""
    res, _cvm = run_once(work, seed)
    locks = None
    if work.seeded:
        locks_res, _ = run_once(WORKLOADS["water-locks"], seed)
        locks = fingerprint(locks_res)
    check.first(fingerprint(res), locks)
    return res


def tail_note(times: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    pct = int(100 * (1 - 10 / n)) if n >= 20 else 0
    if pct < 50:
        return f"n={n}; a tail percentile needs n>=20"
    value = statistics.quantiles(times, n=100)[pct - 1]
    return f"n={n}; p{pct}={value:.4f} s"


def end_to_end(work: Workload, seed: int, seconds: float,
               check: OutputCheck) -> Dict[str, float]:
    # Set-up samples and reference-kernel samples are spread over the
    # timed window, so that they see the host as the runs saw it.
    setup: List[float] = []
    startup: List[float] = []
    ref: List[float] = []

    def between() -> None:
        ref.extend(reference.kernel() for _ in range(REF_SAMPLES))
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(work, seed))
            startup.append(reference.startup())

    between()
    res = first_run(work, seed, check)
    times = timed_runs(work, seed, check, seconds, between)
    while len(setup) < SETUP_PROBES:
        between()
    scale = reference.NOMINAL_S / statistics.median(ref)
    run_s = statistics.median(times) * scale
    metrics = {
        "run_s": run_s,
        "words_per_s": res.shared_instr_calls / run_s,
        "setup_s": statistics.median(setup) * reference.NOMINAL_STARTUP_S
        / statistics.median(startup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vcycles": res.runtime_cycles,
    }
    print(f"as measured: run median {statistics.median(times):.4f} s "
          f"({tail_note(times)}); setup median "
          f"{statistics.median(setup):.4f} s over {len(setup)} fresh "
          f"interpreters")
    print(f"reference kernel: median {statistics.median(ref) * 1e3:.3f} ms "
          f"over {len(ref)} samples, run_s scaled to "
          f"{reference.NOMINAL_S * 1e3:g} ms; start-up reference: median "
          f"{statistics.median(startup) * 1e3:.1f} ms, setup_s scaled to "
          f"{reference.NOMINAL_STARTUP_S * 1e3:g} ms")
    return metrics


def per_layer(work: Workload, seed: int, seconds: float,
              check: OutputCheck) -> Dict[str, float]:
    from repro.apps.dsl import compiled_image

    first_run(work, seed, check)
    tracer = make_tracer()
    compiled_image.cache_clear()
    with tracer.installed():
        # Run 0 pays the cold compile and is left out of the averages.
        res, _cvm, _wall = traced_run(tracer, work, seed, 0)
        check.repeat(fingerprint(res), "traced run 0")
    # Untraced and traced runs alternate, so that a change in the host's
    # speed during the window moves both sides of trace.overhead_s alike.
    base: List[float] = []
    steady = []
    end = perf_counter() + seconds
    while perf_counter() < end or len(steady) < MIN_RUNS:
        base.append(untraced_run(work, seed, check))
        run = len(steady) + 1
        gc.collect()
        with tracer.installed():
            res, cvm, wall = traced_run(tracer, work, seed, run)
        check.repeat(fingerprint(res), f"traced run {run}")
        steady.append((run, res, cvm, wall))
    if tracer.open_spans():
        check.raised(RuntimeError(f"{tracer.open_spans()} spans left open"))
    metrics, recs = layer_metrics(tracer, steady, base)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{work.name}.spans")
    count = tracer.write(path)
    worst = max(abs(r["error_s"]) / r["wall_s"] for r in recs)
    print(f"traced {len(steady)} runs (+1 cold) alternating with "
          f"{len(base)} untraced; {count} spans -> {os.path.relpath(path)}")
    print(f"reconciliation: max |layers + handoff - wall| / wall = "
          f"{worst:.2e}; max overlap "
          f"{max(r['overlap_s'] for r in recs):.2e} s")
    return metrics


def write_expected() -> int:
    expected = {}
    for name, work in WORKLOADS.items():
        res, _cvm = run_once(work, DEFAULT_SEED)
        expected[name] = fingerprint(res)
        print(f"{name}: {expected[name]['races']} races, "
              f"{expected[name]['runtime_cycles']} cycles")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        parser.error("--workload is required")

    work = WORKLOADS[args.workload]
    check = OutputCheck(work, args.seed)
    print(f"pinned to CPU {pin_to_one_cpu()}")
    metrics: Dict[str, float] = {}
    try:
        if args.trace:
            metrics = per_layer(work, args.seed, args.seconds, check)
        else:
            metrics = end_to_end(work, args.seed, args.seconds, check)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        check.raised(exc)
    for problem in check.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"failed_frac: {check.failed}/{check.attempted} runs")
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": check.correct,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if check.correct else 1


if __name__ == "__main__":
    sys.exit(main())
