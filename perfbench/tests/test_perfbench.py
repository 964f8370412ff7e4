"""Self-tests of the benchmark: the tracer must not change what the
program computes, must account for all wall time, and must leave nothing
installed behind.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import replace

import pytest

from perfbench.layers import PER_LAYER, make_tracer, traced_run
from perfbench.run import END_TO_END
from perfbench.tracer import MARK, SPAN, WAIT, Tracer, read_spans, reconcile
from perfbench.workloads import (ROOT, WORKLOADS, OutputCheck, fingerprint,
                                 run_once)
from repro.apps.sor import SorParams
from repro.errors import DeadlineExceeded

#: The four workloads at 4 processes and small inputs, so the suite stays
#: quick; they keep each workload's configuration.
SMALL = {
    "sor-range": replace(WORKLOADS["sor-range"], nprocs=4,
                         params=SorParams(rows=32, cols=64, iterations=3)),
    "water-locks": replace(WORKLOADS["water-locks"], nprocs=4),
    "hashtab-dsl": replace(WORKLOADS["hashtab-dsl"], nprocs=4),
    "water-chaos": replace(WORKLOADS["water-chaos"], nprocs=4),
}

#: Largest |layer self times + handoff - wall| allowed, as a share of wall.
RECONCILE_TOLERANCE = 1e-6


def _owners(tracer: Tracer):
    return [(owner, attr) for owner, attr, *_ in tracer._entry_points]


def _assert_uninstalled(tracer: Tracer) -> None:
    for owner, attr in _owners(tracer):
        assert not hasattr(vars(owner)[attr], MARK), (owner, attr)
    assert tracer.open_spans() == 0
    assert not [t for t in threading.enumerate()
                if t.name.startswith("sim-")]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced_and_reconciles(name):
    work = SMALL[name]
    plain, _ = run_once(work, 3)
    tracer = make_tracer()
    with tracer.installed():
        res, cvm, wall = traced_run(tracer, work, 3, run=1)
    _assert_uninstalled(tracer)
    assert fingerprint(res) == fingerprint(plain)

    summary = tracer.summaries()[1]
    rec = reconcile(summary, wall)
    assert rec["handoff_s"] >= 0.0
    assert abs(rec["overlap_s"]) <= RECONCILE_TOLERANCE * wall
    assert abs(rec["error_s"]) <= RECONCILE_TOLERANCE * wall
    assert all(v >= -1e-9 for v in summary.self_s.values())
    assert summary.calls["sim.scheduler"] > 0 and cvm.scheduler.switches > 0
    assert summary.self_s["apps"] > 0 and summary.self_s["dsm.sync"] > 0


def test_no_wrapper_survives_deadline_abort():
    tracer = make_tracer()
    work = WORKLOADS["water-locks"]
    with pytest.raises(DeadlineExceeded):
        with tracer.installed():
            traced_run(tracer, work, 0, run=1, deadline_seconds=0.05)
    _assert_uninstalled(tracer)
    # The abort unwound the process threads mid-run, through their spans.
    assert tracer.summaries()[1].self_s["apps"] > 0


def test_spans_written_and_read_back(tmp_path):
    tracer = make_tracer()
    with tracer.installed():
        traced_run(tracer, SMALL["water-locks"], 0, run=7)
    path = os.path.join(tmp_path, "spans")
    count = tracer.write(path)
    header, f = read_spans(path)
    assert count == header["count"] == tracer.span_count() > 0
    spans = {f["span"][i]: i for i in range(count)}
    for i in range(count):
        assert f["run"][i] == 7
        assert f["start"][i] <= f["end"][i]
        parent = f["parent"][i]
        if parent:
            p = spans[parent]
            assert f["thread"][p] == f["thread"][i]
            assert f["start"][p] <= f["start"][i] <= f["end"][i] <= f["end"][p]


def test_self_time_excludes_children_and_waits():
    tracer = Tracer()

    def leaf():
        return 1

    def waiting():
        return 2

    wrapped_leaf = tracer.wrap(leaf, "leaf", "low")
    wrapped_wait = tracer.wrap(waiting, "wait", "sched", WAIT)

    def top():
        return wrapped_leaf() + wrapped_wait()

    assert tracer.wrap(top, "top", "high", SPAN)() == 3
    s = tracer.summaries()[0]
    assert s.calls == {"high": 1, "low": 1, "sched": 1}
    assert len(s.segments) == 2
    assert abs(sum(s.self_s.values()) - s.active_sum_s()) < 1e-12


def test_output_check_counts_mismatches():
    fp = {"races": 2, "race_lines_sha256": "a", "runtime_cycles": 1.0}
    check = OutputCheck(WORKLOADS["water-locks"], 5,
                        expected={"water-locks": dict(fp)})
    check.first(dict(fp))
    check.repeat(dict(fp))
    assert check.correct and check.attempted == 2
    check.repeat(dict(fp, runtime_cycles=2.0))
    assert check.failed == 1 and not check.correct

    locks = {"water-locks": dict(fp)}
    for locks_fp, failed in ((dict(fp), 0),
                             (dict(fp, race_lines_sha256="b"), 1),
                             (dict(fp, runtime_cycles=2.0), 1)):
        chaos = OutputCheck(WORKLOADS["water-chaos"], 5, expected=locks)
        chaos.first(dict(fp), locks_fp)
        assert chaos.failed == failed

    sor = OutputCheck(WORKLOADS["sor-range"], 0,
                      expected={"sor-range": dict(fp)})
    sor.first(dict(fp))
    assert sor.failed == 1  # sor-range must report no race


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
