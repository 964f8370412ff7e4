"""The Env access layer: range semantics, tracking granularity, costs."""

import pytest

from tests.helpers import run_app, run_app_with_system, small_config

from repro.dsm.cvm import CVM
from repro.errors import ProcessFailure, SegmentationFault
from repro.perf import OracleCVM
from repro.sim.costmodel import CostCategory


def test_range_race_detected_at_overlapping_words_only():
    """Two range writes overlapping in [8, 12) race exactly there."""
    def app(env):
        x = env.malloc(16, name="x")
        env.barrier()
        if env.pid == 0:
            env.store_range(x, [1] * 12)       # words 0..11
        else:
            env.store_range(x + 8, [2] * 8)    # words 8..15
        env.barrier()

    res = run_app(app, nprocs=2)
    assert sorted(r.addr for r in res.races) == [8, 9, 10, 11]


def test_range_spanning_pages_tracked_per_page():
    def app(env):
        x = env.malloc(40, name="x")   # pages 0..2 with 16-word pages
        env.barrier()
        if env.pid == 0:
            env.store_range(x, list(range(40)))
        else:
            env.load(x + 33)           # one word on the third page
        env.barrier()

    res = run_app(app, nprocs=2)
    assert len(res.races) == 1
    assert res.races[0].addr == 33


def test_empty_ranges_are_noops():
    def app(env):
        x = env.malloc(4, name="x")
        env.store_range(x, [])
        assert env.load_range(x, 0) == []
        return True

    res = run_app(app, nprocs=1)
    assert res.results == [True]


def test_single_word_range_equivalent_to_scalar():
    def app(env):
        x = env.malloc(2, name="x")
        env.store_range(x, [42])
        return env.load(x)

    assert run_app(app, nprocs=1).results == [42]


def test_access_counters_count_words_not_calls():
    def app(env):
        x = env.malloc(32, name="x")
        env.store_range(x, [0] * 32)   # 32 instrumented accesses
        env.load(x)                    # +1

    res = run_app(app, nprocs=1)
    assert res.shared_instr_calls == 33


def test_proc_call_cost_scales_with_words():
    def app(env):
        x = env.malloc(32, name="x")
        env.store_range(x, [0] * 32)

    _sys, res = run_app_with_system(app, nprocs=1)
    ledger = res.aggregate_ledger()
    cm = res.config.cost_model
    assert ledger.totals[CostCategory.PROC_CALL] == \
        pytest.approx(32 * cm.proc_call)
    assert ledger.totals[CostCategory.ACCESS_CHECK] == \
        pytest.approx(32 * cm.access_check_shared)


def test_site_annotation_reaches_reports_via_watch():
    from repro.dsm.cvm import CVM
    from tests.helpers import small_config

    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        env.store(x, env.pid, site="here:42")
        env.barrier()

    cfg = small_config(nprocs=2)
    system = CVM(cfg)
    system.pc_watch = {0: []}
    system.run(app)
    sites = {hit[2] for hit in system.pc_watch[0]}
    assert "here:42" in sites


def test_pause_creates_no_ordering():
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        if env.pid == 0:
            env.store(x, 1)
        else:
            env.pause(5)
            env.load(x)
        env.barrier()

    res = run_app(app, nprocs=2)
    assert len(res.races) == 1  # pause did not order the accesses


def test_compute_charges_base_only():
    def app(env):
        env.compute(100)

    # With detection off there is no overhead of any kind; with detection
    # on, compute() itself still adds nothing beyond the detector's fixed
    # per-epoch work (no per-unit instrumentation).
    _sys, off = run_app_with_system(app, nprocs=1, detection=False)
    assert off.aggregate_ledger().overhead == pytest.approx(0.0)

    _sys, small = run_app_with_system(app, nprocs=1)
    _sys, large = run_app_with_system(lambda env: env.compute(100_000),
                                      nprocs=1)
    assert large.aggregate_ledger().overhead == \
        pytest.approx(small.aggregate_ledger().overhead)


# ---------------------------------------------------------------------- #
# Page-splitting edge cases of the range path, against the per-word oracle.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("addr,count", [
    (0, 1), (0, 16), (5, 11), (5, 12), (15, 1), (15, 2),
    (0, 17), (0, 32), (0, 33), (7, 40), (16, 16), (31, 3),
    (3, 13), (16, 1), (31, 1),
])
def test_range_roundtrip_matches_oracle(addr, count):
    """P0 stores a range and reads it back while P1 reads it unordered:
    P0 sees its own values, P1's read races on exactly the range's words,
    and counters, races and results match the per-word oracle."""
    values = list(range(100, 100 + count))

    def app(env):
        x = env.malloc(64, name="x", page_aligned=True)
        env.barrier()
        if env.pid == 0:
            env.store_range(x + addr, values)
        got = env.load_range(x + addr, count)
        env.barrier()
        return x, got

    cfg = small_config(nprocs=2)
    res = CVM(cfg).run(app)
    ref = OracleCVM(cfg).run(app)
    x, got = res.results[0]
    assert got == values
    assert res.results == ref.results
    assert res.shared_instr_calls == ref.shared_instr_calls == 3 * count
    raced = sorted({r.addr for r in res.races})
    assert raced == list(range(x + addr, x + addr + count))
    assert [r.key() for r in res.races] == [r.key() for r in ref.races]


def test_store_range_exact_page_multiple_roundtrip():
    def app(env):
        x = env.malloc(48, name="x")      # three full 16-word pages
        env.store_range(x, list(range(48)))
        return env.load_range(x, 48)

    res = run_app(app, nprocs=1)
    assert res.results == [list(range(48))]


def test_store_range_straddling_unaligned_roundtrip():
    def app(env):
        x = env.malloc(64, name="x")
        env.store_range(x + 13, list(range(100, 137)))  # 37 words, 3 pages
        return env.load_range(x + 13, 37)

    res = run_app(app, nprocs=1)
    assert res.results == [list(range(100, 137))]


def test_store_range_accepts_tuple_without_copy():
    """The single-page path assigns the sequence into the page slice
    directly — no intermediate list copy — so any sequence works."""
    def app(env):
        x = env.malloc(16, name="x")
        env.store_range(x + 2, (7, 8, 9))
        return env.load_range(x, 6)

    res = run_app(app, nprocs=1)
    assert res.results == [[0, 0, 7, 8, 9, 0]]


def test_store_range_does_not_mutate_caller_values():
    def app(env):
        x = env.malloc(40, name="x")
        vals = list(range(40))
        env.store_range(x, vals)
        return vals

    res = run_app(app, nprocs=1)
    assert res.results == [list(range(40))]


def test_out_of_segment_range_faults_without_partial_write():
    """A range that runs off the segment or off its allocation faults,
    and the fault names the accessing process."""
    def off_segment_store(env):
        env.store_range(env.system.segment.segment_words - 4, [1] * 8)

    def off_allocation_load(env):
        x = env.malloc(8, name="x")
        env.load_range(x + 4, 8)

    def app(env, access):
        env.malloc(8, name="x")
        env.barrier()
        if env.pid == 1:
            access(env)
        env.barrier()

    for access in (off_segment_store, off_allocation_load):
        system = CVM(small_config(nprocs=2))
        with pytest.raises(ProcessFailure) as exc_info:
            system.run(app, access)
        fault = exc_info.value.__cause__
        assert isinstance(fault, SegmentationFault)
        assert fault.pid == 1
        assert str(fault).startswith("P1: ")


@pytest.mark.parametrize("oracle", [True, False])
def test_range_engines_agree_on_straddling_contents(oracle):
    """Overlapping multi-page range stores race exactly on the overlap,
    on the production engine (oracle=False) and on the per-word oracle
    (oracle=True) alike, and the two report the same races."""
    def app(env):
        x = env.malloc(40, name="x")
        env.barrier()
        if env.pid == 0:
            env.store_range(x + 10, list(range(200, 224)))  # words 10..33
        else:
            env.store_range(x + 30, [5] * 8)                # words 30..37
        env.barrier()

    engine, other = (OracleCVM, CVM) if oracle else (CVM, OracleCVM)
    res = engine(small_config(nprocs=2)).run(app)
    ref = other(small_config(nprocs=2)).run(app)
    assert sorted(r.addr for r in res.races) == [30, 31, 32, 33]
    assert [r.key() for r in res.races] == [r.key() for r in ref.races]
