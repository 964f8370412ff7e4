"""Offline re-execution of barrier-time detection, for benchmarking.

The barrier master's epoch analysis is a pure function of the closing
epoch's interval records (plus the cost model), so it can be captured
from a real application run once and then replayed on *bit-identical
inputs*: through the whole detector (:func:`time_detection`), or through
the candidates step alone next to its oracle — the naive pair search,
overlap probes and check list (:func:`oracle_candidates` vs
:func:`production_candidates`).  That is what makes the wall-clock
comparison in ``benchmarks/bench_wallclock.py`` honest: both sides chew
the same epochs, and their outputs are compared for equality in the same
breath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.apps.base import AppSpec
from repro.core.checklist import CheckEntry, build_check_list, overlap_work
from repro.core.concurrency import PairSearchStats, find_concurrent_pairs
from repro.core.detector import (DetectorStats, RaceDetector,
                                 find_candidates, plan_blocks)
from repro.dsm.cvm import CVM, RunResult
from repro.dsm.interval import Interval
from repro.net.message import WireSizer
from repro.net.transport import Transport
from repro.perf.timing import BenchSample, timeit_best
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostModel


@dataclass
class CapturedEpoch:
    """One interval batch handed to ``RaceDetector.run_epoch``."""

    epoch: int
    intervals: List[Interval]


@dataclass
class DetectionTiming:
    """Result of replaying captured epochs through the detector."""

    label: str
    sample: BenchSample
    races: List[Any]
    stats: DetectorStats
    clock_now: float
    ledger_totals: dict

    def fingerprint(self) -> Tuple:
        """Everything observable about the run except wall-clock: equal
        fingerprints == equivalent runs."""
        return (tuple(r.key() for r in self.races), self.stats,
                self.clock_now,
                tuple(sorted((k.value, v)
                             for k, v in self.ledger_totals.items())))


def capture_epochs(spec: AppSpec, nprocs: int = 8, params: Any = None,
                   **config_overrides: Any
                   ) -> Tuple[RunResult, List[CapturedEpoch]]:
    """Run ``spec`` once with detection on, retaining every epoch's
    interval batch before the store discards it.

    The interval objects (bitmaps included) stay alive because the
    captured list holds references; ``IntervalStore.discard_epoch`` only
    drops the store's own tables.
    """
    cfg = spec.config(nprocs=nprocs, detection=True, **config_overrides)
    system = CVM(cfg)
    captured: List[CapturedEpoch] = []
    inner = system.detector.run_epoch

    def recording(intervals, epoch, master_clock):
        captured.append(CapturedEpoch(epoch, list(intervals)))
        return inner(intervals, epoch, master_clock)

    system.detector.run_epoch = recording
    result = system.run(spec.func, params or spec.default_params)
    return result, captured


def time_detection(epochs: List[CapturedEpoch], page_size_words: int,
                   nprocs: int,
                   cost_model: Optional[CostModel] = None,
                   repeats: int = 3, label: str = "") -> DetectionTiming:
    """Replay ``epochs`` through a fresh detector ``repeats`` times and
    wall-clock the full analysis (pair search, check list, bitmap round
    accounting, bitmap intersection).

    Detector, transport and master clock are rebuilt per repeat so every
    sample does identical work (the detector deduplicates race reports
    across epochs via internal state).
    """
    cm = cost_model or CostModel()
    last: dict = {}

    def one_run() -> None:
        detector = RaceDetector(
            page_size_words, cm, WireSizer(nprocs, page_size_words),
            Transport(cm), symbol_for=lambda addr: f"word+{addr}",
            master_pid=0)
        clock = VirtualClock()
        for ep in epochs:
            detector.run_epoch(ep.intervals, ep.epoch, clock)
        last["detector"] = detector
        last["clock"] = clock

    sample = timeit_best(one_run, repeats=repeats, label=label)
    detector = last["detector"]
    clock = last["clock"]
    return DetectionTiming(
        label=label, sample=sample,
        races=list(detector.races), stats=detector.stats,
        clock_now=clock.now, ledger_totals=dict(clock.ledger.totals))


#: The candidates step's observable output for one epoch: modeled
#: comparisons, concurrent pairs, overlap probe work, and the check list.
CandidateOutput = Tuple[int, int, int, List[CheckEntry]]


def oracle_candidates(intervals: List[Interval]) -> CandidateOutput:
    """The candidates step written out as the paper states it: every
    cross-process pair compared, every concurrent pair's notice lists
    merged, the overlapping ones kept."""
    stats = PairSearchStats()
    pairs = list(find_concurrent_pairs(intervals, stats))
    return (stats.comparisons, stats.concurrent_pairs,
            sum(overlap_work(a, b) for a, b in pairs),
            build_check_list(pairs))


def production_candidates(intervals: List[Interval]) -> CandidateOutput:
    """The detector's candidates step on the one-owner plan, exactly as
    ``RaceDetector.run_epoch`` runs it."""
    plan = plan_blocks(intervals, [0])
    cand = find_candidates(plan, plan.shards[0], coarse_filter=False)
    return (cand.comparisons, cand.concurrent_pairs, cand.probe_work,
            cand.check_list)


def candidate_key(out: CandidateOutput) -> Tuple:
    """Hashable, comparable form of a candidates output."""
    comparisons, pairs, probe_work, check_list = out
    return (comparisons, pairs, probe_work, tuple(
        (e.a.pid, e.a.index, e.b.pid, e.b.index,
         tuple((ov.page, ov.write_write, ov.a_read_b_write,
                ov.a_write_b_read) for ov in e.pages))
        for e in check_list))
