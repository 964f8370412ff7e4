"""The detector's candidates step against its oracle, on captured epochs.

Every epoch — centralized or sharded — goes through one pipeline, and the
only place that pipeline runs something other than the paper's literal
algorithm is the candidates step: pair search and check list, executed as
the naive search, a pruned window scan, or an inverted page index,
chosen from the epoch itself (``SMALL_EPOCH_COMPARISONS``,
``INDEX_MEETING_COST``).  These tests capture the epochs real runs hand
to the detector and hold each strategy — forced on every epoch — and each
shard of a partitioned epoch to the oracle: ``find_concurrent_pairs`` +
``overlap_work`` + ``build_check_list``.  Model comparisons, concurrent
pairs, probe work and the check list (order included) must all match.
Everything downstream of the candidates step is a single code path.
"""

import pytest

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.core import detector
from repro.core.detector import RaceDetector, find_candidates, plan_blocks
from repro.net.message import WireSizer
from repro.net.transport import Transport
from repro.perf import (candidate_key, capture_epochs, oracle_candidates,
                        production_candidates)
from repro.sim.clock import VirtualClock

ALL_APPS = sorted(APPLICATIONS) + sorted(EXTRAS)

#: Module knobs that force one candidates strategy on every epoch.
STRATEGIES = {
    "naive": {"SMALL_EPOCH_COMPARISONS": 10 ** 18},
    "index": {"SMALL_EPOCH_COMPARISONS": -1, "INDEX_MEETING_COST": 0},
    "windows": {"SMALL_EPOCH_COMPARISONS": -1,
                "INDEX_MEETING_COST": 10 ** 18},
}


def sharded_candidates(intervals):
    """The candidates of a partitioned epoch: every pid owns a shard; the
    per-shard outputs are summed and their check lists merged by entry
    key, as the sharded commit sees them."""
    owners = sorted({rec.pid for rec in intervals})
    plan = plan_blocks(intervals, owners)
    parts = [find_candidates(plan, plan.shards[pid], coarse_filter=False)
             for pid in owners]
    entries = sorted((e for c in parts for e in c.check_list),
                     key=lambda e: (e.a.pid, e.b.pid, e.a.index, e.b.index))
    return (sum(c.comparisons for c in parts),
            sum(c.concurrent_pairs for c in parts),
            sum(c.probe_work for c in parts), entries)


def assert_candidates_match_oracle(monkeypatch, app, nprocs=8, **overrides):
    _run, epochs = capture_epochs(get_app(app), nprocs=nprocs, **overrides)
    assert epochs
    for ep in epochs:
        expected = candidate_key(oracle_candidates(ep.intervals))
        for name, knobs in STRATEGIES.items():
            for knob, value in knobs.items():
                monkeypatch.setattr(detector, knob, value)
            got = candidate_key(production_candidates(ep.intervals))
            assert got == expected, (app, ep.epoch, name)
        if len({rec.pid for rec in ep.intervals}) > 1:
            got = candidate_key(sharded_candidates(ep.intervals))
            assert got == expected, (app, ep.epoch, "sharded")


@pytest.mark.parametrize("app", ALL_APPS)
def test_fast_path_matches_reference(app, monkeypatch):
    assert_candidates_match_oracle(monkeypatch, app)


@pytest.mark.parametrize("app", ["tsp", "water"])
def test_fast_path_matches_reference_16_procs(app, monkeypatch):
    """The stress shape from the wall-clock benchmark: more processes,
    more intervals per epoch, more concurrent pairs."""
    assert_candidates_match_oracle(monkeypatch, app, nprocs=16)


def test_fast_path_matches_reference_consolidation(monkeypatch):
    """Consolidation passes call run_epoch mid-epoch on partial interval
    sets."""
    assert_candidates_match_oracle(monkeypatch, "tsp",
                                   consolidation_interval=6)


def test_fast_path_matches_reference_first_races_only(monkeypatch):
    assert_candidates_match_oracle(monkeypatch, "water",
                                   first_races_only=True)


def test_fast_path_matches_reference_multi_writer(monkeypatch):
    assert_candidates_match_oracle(monkeypatch, "water", protocol="mw",
                                   diff_write_detection=True)


def test_detector_state_is_strategy_independent(monkeypatch):
    """The strategy is wall-clock only: the same epochs through a
    detector that always takes the naive search and one that never does
    leave identical serialized state (journaled and checkpointed under
    failover, so its bytes are priced) and identical ledgers."""
    run, epochs = capture_epochs(get_app("water"), nprocs=8)
    cfg = run.config
    cm = cfg.cost_model

    def replay(threshold):
        monkeypatch.setattr(detector, "SMALL_EPOCH_COMPARISONS", threshold)
        det = RaceDetector(
            cfg.page_size_words, cm,
            WireSizer(cfg.nprocs, cfg.page_size_words), Transport(cm),
            symbol_for=lambda addr: f"word+{addr}", master_pid=0)
        clock = VirtualClock()
        for ep in epochs:
            det.run_epoch(ep.intervals, ep.epoch, clock)
        return det.serialize_state(), clock.ledger.totals

    state_small, ledger_small = replay(0)
    state_naive, ledger_naive = replay(10 ** 18)
    assert state_small == state_naive
    assert ledger_small == ledger_naive
    assert state_naive["stats"]["interval_comparisons"] > 0
