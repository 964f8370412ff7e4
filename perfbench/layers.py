"""The program's layers, their public entry points, and the per-layer
metrics computed from a traced run.

Layer names are the program's module names.  Every entry point is wrapped
in the class that defines it and in every subclass that overrides it, so
an override is traced too.  ``Env.__init__`` binds its access-engine
methods (``_load_fast_detect``, ``_load_range_fast``, ...) and the
protocol's ``ensure_*`` methods to the instance, so the wrappers must be
installed before the ``CVM`` is built; :func:`traced_run` does that.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from perfbench.tracer import SPAN, WAIT, Tracer, reconcile
from perfbench.workloads import Workload, run_once

#: Per-layer metrics and their units, in report order (BENCHMARK.json
#: lists the same).
PER_LAYER = {
    "sim.scheduler.handoffs": "count",
    "sim.scheduler.handoff_s": "s",
    "sim.scheduler.handoff_us": "us",
    "dsm.env.calls": "count",
    "dsm.env.words": "count",
    "dsm.env.self_s": "s",
    "dsm.env.ns_per_word": "ns",
    "dsm.protocol.calls": "count",
    "dsm.protocol.faults": "count",
    "dsm.protocol.diffs": "count",
    "dsm.protocol.self_s": "s",
    "dsm.sync.ops": "count",
    "dsm.sync.self_s": "s",
    "core.detector.epochs": "count",
    "core.detector.self_s": "s",
    "core.detector.concurrent_pairs": "count",
    "core.detector.bitmaps_fetched": "count",
    "core.detector.filter_skip_ratio": "ratio",
    "core.detector.race_yield": "ratio",
    "net.messages": "count",
    "net.bytes": "bytes",
    "net.retransmits": "count",
    "net.self_s": "s",
    "dsm.checkpoint.snapshots": "count",
    "dsm.checkpoint.bytes": "bytes",
    "dsm.checkpoint.recoveries": "count",
    "dsm.checkpoint.self_s": "s",
    "instrument.machine.steps": "count",
    "instrument.machine.self_s": "s",
    "instrument.machine.ns_per_step": "ns",
    "instrument.compiler.self_s": "s",
    "apps.self_s": "s",
    "dsm.cvm.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

ENV_WORD_METHODS = {
    "load": None, "store": None,
    "_load_fast_detect": None, "_load_fast_plain": None,
    "_store_fast_detect": None, "_store_fast_plain": None,
    "load_range": "count", "_load_range_fast": "count",
    "_load_range_scalar": "count",
    "store_range": "values", "_store_range_fast": "values",
    "_store_range_scalar": "values",
}


def _words(arg: Optional[str]):
    """Counter of shared words moved by one Env access call."""
    if arg is None:
        return lambda args, kwargs, result: 1
    if arg == "count":
        return lambda args, kwargs, result: max(
            0, args[2] if len(args) > 2 else kwargs["count"])
    return lambda args, kwargs, result: len(
        args[2] if len(args) > 2 else kwargs["values"])


def _overriding(cls: type, attr: str) -> List[type]:
    """``cls`` and every subclass whose own ``__dict__`` defines attr."""
    out = [cls] if attr in vars(cls) else []
    for sub in cls.__subclasses__():
        out.extend(c for c in _overriding(sub, attr) if c not in out)
    return out


def make_tracer() -> Tracer:
    """A tracer with every layer's public entry points declared."""
    from repro.apps import dsl
    from repro.core.detector import RaceDetector
    from repro.dsm.checkpoint import CheckpointManager
    from repro.dsm.cvm import CVM, Env
    from repro.dsm.protocol import Protocol
    from repro.instrument.machine import Machine
    from repro.net.reliable import ReliableChannel
    from repro.net.transport import Transport
    from repro.sim.scheduler import Scheduler

    t = Tracer()

    def add(cls: type, attrs, layer: str, kind: int = SPAN,
            counter=None) -> None:
        for attr in attrs:
            for owner in _overriding(cls, attr):
                t.add(owner, attr, layer, kind, counter)

    add(Scheduler, ("yield_control", "block", "run"), "sim.scheduler", WAIT)
    for attr, arg in ENV_WORD_METHODS.items():
        add(Env, (attr,), "dsm.env", counter=("words", _words(arg)))
    add(Env, ("private_accesses", "compute"), "dsm.env")
    add(Protocol, ("ensure_readable", "ensure_writable",
                   "apply_write_notice", "on_interval_closed"),
        "dsm.protocol")
    add(CVM, ("lock_acquire", "lock_release", "barrier", "event_set",
              "event_wait"), "dsm.sync")
    add(RaceDetector, ("run_epoch", "plan_shards", "compute_shard",
                       "commit_sharded"), "core.detector")
    add(Transport, ("send", "deliver"), "net")
    add(ReliableChannel, ("send",), "net")
    add(CheckpointManager, ("take",), "dsm.checkpoint",
        counter=("checkpoint_bytes",
                 lambda args, kwargs, result: result.nbytes))
    add(CheckpointManager, ("restore_latest",), "dsm.checkpoint")
    add(Machine, ("run",), "instrument.machine",
        counter=("steps", lambda args, kwargs, result: args[0].steps))
    t.add(dsl, "compiled_image", "instrument.compiler")
    return t


def traced_run(tracer: Tracer, work: Workload, seed: int,
               run: int, **extra: Any) -> Tuple[Any, Any, float]:
    """One traced run with ``tracer.run_id = run``; wrappers must already
    be installed.  Returns (result, cvm, wall seconds of the root span)."""
    tracer.run_id = run
    app = tracer.wrap(work.spec.func, "app", "apps")
    root = tracer.wrap(run_once, "run_once", "dsm.cvm")
    t0 = perf_counter()
    res, cvm = root(work, seed, app, **extra)
    return res, cvm, perf_counter() - t0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, steady: List[Tuple[int, Any, Any, float]],
                  untraced_s: List[float]
                  ) -> Tuple[Dict[str, float], List[Dict[str, float]]]:
    """Per-layer metrics, averaged over the ``steady`` traced runs, each
    given as (run id, result, cvm, wall seconds).  Run 0 is the traced
    run that compiled the DSL program on a cold cache.

    Returns the metrics and each steady run's reconciliation."""
    summaries = tracer.summaries()
    n = len(steady)
    acc: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0.0) + value / n

    recs = []
    for run, res, cvm, wall in steady:
        s = summaries[run]
        rec = reconcile(s, wall)
        recs.append(dict(rec, wall_s=wall))
        self_s = s.self_s
        add("sim.scheduler.handoffs", cvm.scheduler.switches)
        add("sim.scheduler.handoff_s", rec["handoff_s"])
        add("dsm.env.calls", s.calls.get("dsm.env", 0))
        add("dsm.env.words", s.counts.get("words", 0))
        add("dsm.env.self_s", self_s.get("dsm.env", 0.0))
        ps = res.protocol_stats
        add("dsm.protocol.calls", s.calls.get("dsm.protocol", 0))
        add("dsm.protocol.faults", ps["read_faults"] + ps["write_faults"])
        add("dsm.protocol.diffs", ps["diffs_created"])
        add("dsm.protocol.self_s", self_s.get("dsm.protocol", 0.0))
        add("dsm.sync.ops", s.calls.get("dsm.sync", 0))
        add("dsm.sync.self_s", self_s.get("dsm.sync", 0.0))
        ds = res.detector_stats
        add("core.detector.epochs", ds.epochs_checked)
        add("core.detector.self_s", self_s.get("core.detector", 0.0))
        add("core.detector.concurrent_pairs", ds.concurrent_pairs)
        add("core.detector.bitmaps_fetched", ds.bitmaps_fetched)
        add("core.detector.filter_skip_ratio",
            _ratio(ds.pairs_filtered, ds.granule_checks))
        add("core.detector.race_yield",
            _ratio(ds.races_found, ds.bitmap_comparisons))
        add("net.messages", res.traffic.total_messages)
        add("net.bytes", res.traffic.total_bytes)
        add("net.retransmits", res.traffic.retransmits)
        add("net.self_s", self_s.get("net", 0.0))
        cs = res.crash_stats
        add("dsm.checkpoint.snapshots",
            s.by_name.get("CheckpointManager.take", 0))
        add("dsm.checkpoint.bytes", s.counts.get("checkpoint_bytes", 0))
        add("dsm.checkpoint.recoveries", cs.recoveries_from_checkpoint
            + cs.recoveries_without_checkpoint)
        add("dsm.checkpoint.self_s", self_s.get("dsm.checkpoint", 0.0))
        add("instrument.machine.steps", s.counts.get("steps", 0))
        add("instrument.machine.self_s",
            self_s.get("instrument.machine", 0.0))
        add("apps.self_s", self_s.get("apps", 0.0))
        add("dsm.cvm.self_s", self_s.get("dsm.cvm", 0.0))
        add("trace.wall_s", wall)
    m = acc
    m["sim.scheduler.handoff_us"] = 1e6 * _ratio(
        m["sim.scheduler.handoff_s"], m["sim.scheduler.handoffs"])
    m["dsm.env.ns_per_word"] = 1e9 * _ratio(m["dsm.env.self_s"],
                                            m["dsm.env.words"])
    m["instrument.machine.ns_per_step"] = 1e9 * _ratio(
        m["instrument.machine.self_s"], m["instrument.machine.steps"])
    m["instrument.compiler.self_s"] = summaries[0].self_s.get(
        "instrument.compiler", 0.0)
    m["trace.overhead_s"] = (statistics.median(w for *_, w in steady)
                             - statistics.median(untraced_s))
    return {name: m[name] for name in PER_LAYER}, recs

