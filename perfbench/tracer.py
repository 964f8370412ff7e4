"""Span tracer that times calls into a program's layers from outside it.

The tracer installs wrappers on chosen functions (class methods or module
attributes) for the duration of a ``with tracer.installed():`` block and
restores the originals on exit, also when the block raises.  Each wrapped
call becomes a span: name, start, end, parent span, run id and thread.
Spans live in per-thread buffers, so no lock is taken on the hot path,
and are written out by :meth:`Tracer.write` once the traced runs end.

Two kinds of span exist:

* ``SPAN`` -- work done by the layer.  Its *self time* is its duration
  minus the durations of its direct children.
* ``WAIT`` -- the calling thread gives up the processor here (a simulated
  process handing the scheduler token back, or the dispatcher waiting for
  the processes).  Its duration is subtracted from its parent's self time
  but counted to no layer.

Each thread's *active segments* run from the start of a root span to the
next WAIT, and from the end of a WAIT to the next WAIT or the end of the
root.  When at most one thread holds the token at any moment, the active
segments of all threads never overlap, the self times of all SPANs add up
to the total length of the segments, and the rest of the wall time is the
handoff between threads.  :func:`reconcile` checks exactly that.
"""

from __future__ import annotations

import array
import contextlib
import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

SPAN = 0
WAIT = 1

#: Attribute set on every wrapper, so tests can prove none survives.
MARK = "__perfbench_span__"

#: Counter hook: ``count(args, kwargs, result) -> int``, added to the
#: named counter of the current run after a call returns normally.
Counter = Callable[[tuple, dict, Any], int]

#: Span buffer fields, in the order :meth:`Tracer.write` stores them.
_FIELDS = (("name", "H"), ("thread", "H"), ("run", "l"), ("span", "q"),
           ("parent", "q"), ("start", "d"), ("end", "d"), ("self_s", "d"))


class _ThreadLog:
    """Span stack and span buffers of one thread."""

    def __init__(self, index: int):
        self.index = index
        #: Open frames: [span id, start, children's duration].
        self.stack: List[list] = []
        self.buf = {f: array.array(code) for f, code in _FIELDS}
        #: Active segments as (run, start, end).
        self.segments: List[Tuple[int, float, float]] = []
        self.seg_start = 0.0
        #: (run, counter name) -> total.
        self.counts: Dict[Tuple[int, str], int] = {}

    def record(self, name: int, run: int, span: int, parent: int,
               start: float, end: float, self_s: float) -> None:
        b = self.buf
        b["name"].append(name)
        b["thread"].append(self.index)
        b["run"].append(run)
        b["span"].append(span)
        b["parent"].append(parent)
        b["start"].append(start)
        b["end"].append(end)
        b["self_s"].append(self_s)


class Tracer:
    """Collects spans from wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        #: Span names; a span's name id indexes this list.
        self.names: List[str] = []
        #: Layer and kind of each span name.
        self.layer_of: List[str] = []
        self.kind_of: List[int] = []
        #: Run id stamped on new spans; set by the driving thread between
        #: runs, read by every thread during a run.
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._entry_points: List[Tuple[Any, str, str, int,
                                       Optional[Tuple[str, Counter]]]] = []

    # ------------------------------------------------------------------ #
    # Declaring and installing wrappers.
    # ------------------------------------------------------------------ #
    def add(self, owner: Any, attr: str, layer: str, kind: int = SPAN,
            counter: Optional[Tuple[str, Counter]] = None) -> None:
        """Trace ``owner.attr`` (a function defined in ``owner.__dict__``)
        under ``layer`` while :meth:`installed` is active."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r}")
        self._entry_points.append((owner, attr, layer, kind, counter))

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every declared wrapper; restore the originals on exit."""
        patched: List[Tuple[Any, str, Any]] = []
        try:
            for owner, attr, layer, kind, counter in self._entry_points:
                orig = vars(owner)[attr]
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                setattr(owner, attr,
                        self.wrap(orig, label, layer, kind, counter))
                patched.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(patched):
                setattr(owner, attr, orig)

    def _name_id(self, label: str, layer: str, kind: int) -> int:
        for nid, known in enumerate(self.names):
            if known == label and self.layer_of[nid] == layer:
                return nid
        self.names.append(label)
        self.layer_of.append(layer)
        self.kind_of.append(kind)
        return len(self.names) - 1

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            with self._logs_lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
            return log

    def wrap(self, fn: Callable[..., Any], label: str, layer: str,
             kind: int = SPAN,
             counter: Optional[Tuple[str, Counter]] = None
             ) -> Callable[..., Any]:
        """Return ``fn`` wrapped so that every call records a span."""
        name = self._name_id(label, layer, kind)
        ids = self._ids
        get_log = self._log
        tracer = self
        count_key, count_fn = counter if counter else (None, None)

        if kind == WAIT:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                log = get_log()
                stack = log.stack
                parent = stack[-1] if stack else None
                run = tracer.run_id
                frame = [next(ids), perf_counter(), 0.0]
                if parent is not None:
                    log.segments.append((run, log.seg_start, frame[1]))
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    dur = end - frame[1]
                    if parent is not None:
                        parent[2] += dur
                        log.seg_start = end
                    log.record(name, run, frame[0],
                               parent[0] if parent is not None else 0,
                               frame[1], end, dur)
        else:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                log = get_log()
                stack = log.stack
                parent = stack[-1] if stack else None
                run = tracer.run_id
                frame = [next(ids), perf_counter(), 0.0]
                if parent is None:
                    log.seg_start = frame[1]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                    if count_fn is not None:
                        key = (run, count_key)
                        log.counts[key] = (log.counts.get(key, 0)
                                           + count_fn(args, kwargs, result))
                    return result
                finally:
                    end = perf_counter()
                    stack.pop()
                    dur = end - frame[1]
                    if parent is not None:
                        parent[2] += dur
                        pid = parent[0]
                    else:
                        log.segments.append((run, log.seg_start, end))
                        pid = 0
                    log.record(name, run, frame[0], pid, frame[1], end,
                               dur - frame[2])
        setattr(wrapper, MARK, layer)
        return wrapper

    # ------------------------------------------------------------------ #
    # Results.
    # ------------------------------------------------------------------ #
    def open_spans(self) -> int:
        """Spans still open on any thread (0 once every traced call has
        returned or unwound)."""
        return sum(len(log.stack) for log in self._logs)

    def span_count(self) -> int:
        return sum(len(log.buf["span"]) for log in self._logs)

    def summaries(self) -> Dict[int, "RunSummary"]:
        """Per-layer self time, call counts and counters of every run."""
        out: Dict[int, RunSummary] = {}

        def of(run: int) -> RunSummary:
            if run not in out:
                out[run] = RunSummary()
            return out[run]

        for log in self._logs:
            buf = log.buf
            for nid, run, self_s in zip(buf["name"], buf["run"],
                                        buf["self_s"]):
                summ = of(run)
                layer = self.layer_of[nid]
                label = self.names[nid]
                summ.calls[layer] = summ.calls.get(layer, 0) + 1
                summ.by_name[label] = summ.by_name.get(label, 0) + 1
                if self.kind_of[nid] == SPAN:
                    summ.self_s[layer] = summ.self_s.get(layer, 0.0) + self_s
            for (run, key), value in log.counts.items():
                summ = of(run)
                summ.counts[key] = summ.counts.get(key, 0) + value
            for run, start, end in log.segments:
                of(run).segments.append((start, end))
        return out

    def write(self, path: str) -> int:
        """Write every span to ``path``: one JSON header line, then each
        field's array in the header's order.  Returns the span count."""
        merged = {f: array.array(code) for f, code in _FIELDS}
        for log in self._logs:
            for f, _code in _FIELDS:
                merged[f].extend(log.buf[f])
        count = len(merged["span"])
        header = {"format": "perfbench-spans-1", "count": count,
                  "names": self.names, "layers": self.layer_of,
                  "kinds": self.kind_of,
                  "fields": [[f, code] for f, code in _FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for f, _code in _FIELDS:
                merged[f].tofile(fh)
        return count


def read_spans(path: str) -> Tuple[dict, Dict[str, array.array]]:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields: Dict[str, array.array] = {}
        for f, code in header["fields"]:
            arr = array.array(code)
            arr.fromfile(fh, header["count"])
            fields[f] = arr
    return header, fields


class RunSummary:
    """What one traced run spent, by layer."""

    def __init__(self) -> None:
        #: Layer -> summed self time of its SPANs.
        self.self_s: Dict[str, float] = {}
        #: Layer -> number of spans (SPAN and WAIT).
        self.calls: Dict[str, int] = {}
        #: Span name (``Owner.attr``) -> number of spans.
        self.by_name: Dict[str, int] = {}
        #: Counter name -> total.
        self.counts: Dict[str, int] = {}
        #: Active segments (start, end) of every thread.
        self.segments: List[Tuple[float, float]] = []

    def active_union_s(self) -> float:
        """Length of the union of all threads' active segments."""
        total = 0.0
        cur_s = cur_e = None
        for s, e in sorted(self.segments):
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            total += cur_e - cur_s
        return total

    def active_sum_s(self) -> float:
        return sum(e - s for s, e in self.segments)


def reconcile(summary: RunSummary, wall_s: float) -> Dict[str, float]:
    """Split ``wall_s`` into layer self time and handoff time.

    ``handoff_s`` is the wall time no thread spent in an active segment.
    ``overlap_s`` is active time counted on two threads at once, which the
    one-token invariant forbids; ``error_s`` is how far the layers' self
    times plus the handoff miss the wall time."""
    union = summary.active_union_s()
    handoff = wall_s - union
    layers = sum(summary.self_s.values())
    return {"handoff_s": handoff,
            "overlap_s": summary.active_sum_s() - union,
            "error_s": layers + handoff - wall_s}
