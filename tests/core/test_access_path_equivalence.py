"""The production Env against the per-word access oracle, end to end.

Mirrors test_fast_path_equivalence.py one layer down: every registered
application runs end to end on the production ``Env`` (fused charges,
range-native recording) and on ``OracleCVM`` (the paper's literal
one-analysis-call-per-word chain), and *everything observable* must
match: race reports, detector statistics, access counters, traffic
totals, the per-process virtual-time ledgers, and the final runtime.
Hooked configurations — access tracing, pc-watching, crash injection —
are compared too, on their traces, watch hits and crash statistics.
("batched" names the production engine, "scalar" the per-word oracle.)
That equality is what keeps Tables 1-3 and Figures 3-4 byte-identical,
and it is the correctness gate of ``benchmarks/bench_endtoend.py``.
"""

import pytest

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.dsm.cvm import CVM
from repro.errors import DeadlockError
from repro.perf import OracleCVM, oracle_run
from repro.replay import attribute
from repro.sim.costmodel import CostCategory

ALL_APPS = sorted(APPLICATIONS) + sorted(EXTRAS)


def paired_runs(app: str, nprocs: int = 8, **overrides):
    spec = get_app(app)
    if app == "queue_racy":
        nprocs = 3
    prod = spec.run(nprocs=nprocs, **overrides)
    ref = oracle_run(spec, nprocs=nprocs, **overrides)
    return prod, ref


def assert_equivalent(prod, ref):
    assert [r.key() for r in prod.races] == [r.key() for r in ref.races]
    assert prod.detector_stats == ref.detector_stats
    assert prod.runtime_cycles == ref.runtime_cycles
    assert prod.shared_instr_calls == ref.shared_instr_calls
    assert prod.traffic.total_messages == ref.traffic.total_messages
    assert prod.traffic.total_bytes == ref.traffic.total_bytes
    assert len(prod.ledgers) == len(ref.ledgers)
    for lp, lr in zip(prod.ledgers, ref.ledgers):
        assert lp.totals == lr.totals


@pytest.mark.parametrize("app", ALL_APPS)
def test_batched_matches_scalar(app):
    prod, ref = paired_runs(app)
    assert_equivalent(prod, ref)


@pytest.mark.parametrize("app", ["sor", "water"])
def test_batched_matches_scalar_16_procs(app):
    prod, ref = paired_runs(app, nprocs=16)
    assert_equivalent(prod, ref)


def test_batched_matches_scalar_detection_off():
    """The uninstrumented baseline (slowdown denominators) must agree too."""
    prod, ref = paired_runs("sor", detection=False)
    assert_equivalent(prod, ref)


def test_batched_matches_scalar_multi_writer_diffs():
    """MW diff mode skips store instrumentation; both engines must skip
    the identical charges."""
    prod, ref = paired_runs("water", protocol="mw",
                            diff_write_detection=True)
    assert_equivalent(prod, ref)


def test_batched_matches_scalar_inline_instrumentation():
    """inline mode zeroes the proc-call component of the fused charge."""
    prod, ref = paired_runs("fft", inline_instrumentation=True)
    assert_equivalent(prod, ref)


def test_batched_matches_scalar_under_faults():
    """Fault configs route traffic through the reliable channel; retry
    timeouts interleave with access charges and must still line up."""
    prod, ref = paired_runs("tsp", loss_rate=0.05, fault_seed=3)
    assert_equivalent(prod, ref)
    assert prod.traffic.retransmits == ref.traffic.retransmits > 0


def test_batched_matches_scalar_under_crashes():
    """The crash hook runs once per access call on both engines, so the
    crash schedule and the recovered verdicts must not move."""
    prod, ref = paired_runs("water", crash_rate=0.01, crash_seed=7,
                            checkpoint=True)
    assert_equivalent(prod, ref)
    assert prod.crash_stats.crashes == ref.crash_stats.crashes > 0
    assert prod.crash_stats.summary() == ref.crash_stats.summary()


def test_batched_matches_scalar_fail_stop_crash():
    """Without recovery the first crash unwinds its process and the
    survivors deadlock; both engines crash the same node at the same
    virtual time."""
    spec = get_app("water")
    overrides = dict(nprocs=4, crash_rate=0.01, crash_seed=7,
                     crash_recovery=False)
    with pytest.raises(DeadlockError) as prod:
        spec.run(**overrides)
    with pytest.raises(DeadlockError) as ref:
        oracle_run(spec, **overrides)
    assert prod.value.crashed == ref.value.crashed
    assert str(prod.value) == str(ref.value)


@pytest.mark.parametrize("app", ["sor", "water", "hashtab"])
def test_batched_matches_scalar_access_trace(app):
    """The trace hook sees one event per access call, at the same
    interval, on both engines."""
    prod, ref = paired_runs(app, track_access_trace=True)
    assert_equivalent(prod, ref)
    assert prod.access_trace
    assert prod.access_trace == ref.access_trace


@pytest.mark.parametrize("app", ["water", "queue_racy", "hashtab"])
def test_attribution_replay_on_oracle_names_same_sites(app, monkeypatch):
    """§6.1 attribution detects on the production engine and replays
    with pc-watching; replaying on the oracle must site every racy word
    identically."""
    spec = get_app(app)
    cfg = spec.config(nprocs=3 if app == "queue_racy" else 4)
    prod = attribute.attribute_races(spec.func, spec.default_params, cfg)
    systems = iter([CVM, OracleCVM])
    monkeypatch.setattr(attribute, "CVM", lambda c: next(systems)(c))
    ref = attribute.attribute_races(spec.func, spec.default_params, cfg)
    assert prod.races
    assert [r.key() for r in prod.races] == [r.key() for r in ref.races]
    assert prod.sites == ref.sites


def test_fused_charge_decomposition_matches():
    """The fused advance_split attributes exactly what the per-word chain
    attributes, category by category."""
    prod, ref = paired_runs("sor")
    for cat in (CostCategory.BASE, CostCategory.PROC_CALL,
                CostCategory.ACCESS_CHECK):
        assert prod.aggregate_ledger().totals.get(cat, 0.0) == \
            ref.aggregate_ledger().totals.get(cat, 0.0)
