"""The per-word access chain: the test oracle of the production ``Env``.

The paper's ATOM instrumentation makes one analysis-routine call per
shared load or store (§4): classify the access, set one bit in the
interval's per-page bitmap, and charge the fixed cost as a sequence of
clock advances — base access, procedure call, access check.
:class:`OracleEnv` executes exactly that, word by word, for single
accesses and for ranges alike.  The production :class:`~repro.dsm.cvm.Env`
fuses the charges and records ranges page by page; everything observable
(race reports, detector statistics, counters, traffic, ledgers, runtime,
access traces, watch hits, crash times) must come out identical.

Both engines share ``Env._after_access``, called once per access call,
so hooked configurations (access tracing, pc-watching, crash injection)
are compared too.  Only tests and ``benchmarks/bench_endtoend.py`` import
this module.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.apps.base import AppSpec
from repro.dsm.cvm import CVM, Env, RunResult
from repro.errors import SegmentationFault
from repro.sim.costmodel import CostCategory


class OracleEnv(Env):
    """``Env`` with the literal one-analysis-call-per-word chain."""

    def load(self, addr: int, site: Optional[str] = None) -> Any:
        node = self._node
        if not 0 <= addr < self.config.segment_words:
            raise SegmentationFault(self.pid, addr)
        page, off = addr // self._psz, addr % self._psz
        copy = self.system.protocol.ensure_readable(node, page)
        self._clock.advance(self._cm.plain_access, CostCategory.BASE)
        if self._detect:
            node.shared_instr_calls += 1
            if self._proc_call:
                self._clock.advance(self._proc_call, CostCategory.PROC_CALL)
            self._clock.advance(self._cm.access_check_shared,
                                CostCategory.ACCESS_CHECK)
            node.current.record_read(page, off)
        self._after_access(addr, 1, False, site)
        return copy.data[off]

    def store(self, addr: int, value: Any, site: Optional[str] = None) -> None:
        node = self._node
        if not 0 <= addr < self.config.segment_words:
            raise SegmentationFault(self.pid, addr)
        page, off = addr // self._psz, addr % self._psz
        copy = self.system.protocol.ensure_writable(node, page, off)
        copy.data[off] = value
        self._clock.advance(self._cm.plain_access, CostCategory.BASE)
        if self._record_writes:
            node.shared_instr_calls += 1
            if self._proc_call:
                self._clock.advance(self._proc_call, CostCategory.PROC_CALL)
            self._clock.advance(self._cm.access_check_shared,
                                CostCategory.ACCESS_CHECK)
            node.current.record_write(page, off)
        self._after_access(addr, 1, True, site)

    def load_range(self, addr: int, count: int,
                   site: Optional[str] = None) -> List[Any]:
        if count <= 0:
            return []
        self.system.segment.check_range(addr, count, self.pid)
        node = self._node
        clock = self._clock
        cm = self._cm
        detect = self._detect
        proc_call = self._proc_call
        ensure = self._protocol.ensure_readable
        psz = self._psz
        out: List[Any] = []
        for a in range(addr, addr + count):
            page, off = a // psz, a % psz
            copy = ensure(node, page)
            clock.advance(cm.plain_access, CostCategory.BASE)
            if detect:
                node.shared_instr_calls += 1
                if proc_call:
                    clock.advance(proc_call, CostCategory.PROC_CALL)
                clock.advance(cm.access_check_shared,
                              CostCategory.ACCESS_CHECK)
                node.current.record_read(page, off)
            out.append(copy.data[off])
        self._after_access(addr, count, False, site)
        return out

    def store_range(self, addr: int, values: Sequence[Any],
                    site: Optional[str] = None) -> None:
        count = len(values)
        if count == 0:
            return
        self.system.segment.check_range(addr, count, self.pid)
        node = self._node
        clock = self._clock
        cm = self._cm
        record = self._record_writes
        proc_call = self._proc_call
        ensure = self._protocol.ensure_writable
        psz = self._psz
        for i, a in enumerate(range(addr, addr + count)):
            page, off = a // psz, a % psz
            copy = ensure(node, page, off)
            copy.data[off] = values[i]
            clock.advance(cm.plain_access, CostCategory.BASE)
            if record:
                node.shared_instr_calls += 1
                if proc_call:
                    clock.advance(proc_call, CostCategory.PROC_CALL)
                clock.advance(cm.access_check_shared,
                              CostCategory.ACCESS_CHECK)
                node.current.record_write(page, off)
        self._after_access(addr, count, True, site)


class OracleCVM(CVM):
    """A ``CVM`` whose processes run on :class:`OracleEnv`."""

    def _proc_main(self, app: Callable[..., Any], pid: int, args: tuple) -> Any:
        env = OracleEnv(self, pid)
        result = app(env, *args)
        self.barrier(pid)  # final flush: close and check the last epoch
        return result


def oracle_run(spec: AppSpec, nprocs: int = 8, detection: bool = True,
               params: Any = None, **config_overrides: Any) -> RunResult:
    """``spec.run`` on an :class:`OracleCVM`."""
    cfg = spec.config(nprocs=nprocs, detection=detection, **config_overrides)
    return OracleCVM(cfg).run(spec.func, params or spec.default_params)
