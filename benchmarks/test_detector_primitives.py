"""Microbenchmarks of the detector's hot primitives.

These are the operations whose constant-time/linear-time behaviour the
paper leans on: vector-timestamp concurrency checks (two integer
compares), word-bitmap intersection (constant in page size), and the
concurrent-pair search over an epoch's intervals.
"""

import random

from repro.core.bitmap import Bitmap
from repro.core.concurrency import PairSearchStats, find_concurrent_pairs
from repro.dsm.interval import Interval
from repro.dsm.vector_clock import VectorClock, concurrent


def test_vc_concurrency_check(benchmark):
    va = VectorClock([5, 0, 3, 1, 0, 2, 0, 4])
    vb = VectorClock([2, 7, 3, 0, 1, 2, 5, 0])
    result = benchmark(lambda: concurrent(0, 5, va, 1, 7, vb))
    assert result is True


def test_bitmap_intersection_page(benchmark):
    rng = random.Random(0)
    a, b = Bitmap(1024), Bitmap(1024)
    for _ in range(200):
        a.set(rng.randrange(1024))
        b.set(rng.randrange(1024))
    bits = benchmark(lambda: a.intersection_bits(b))
    assert isinstance(bits, list)


def test_bitmap_set_range(benchmark):
    def work():
        bm = Bitmap(1024)
        bm.set_range(13, 900)
        return bm

    bm = benchmark(work)
    assert bm.count() == 900


def test_pair_search_epoch(benchmark):
    """An epoch the size of a TSP barrier interval population."""
    rng = random.Random(42)
    intervals = []
    nprocs, per_proc = 8, 20
    for pid in range(nprocs):
        seen = [0] * nprocs
        for idx in range(1, per_proc + 1):
            seen[pid] = idx
            # Randomly observe other processes' progress (lock traffic).
            for q in range(nprocs):
                if q != pid and rng.random() < 0.3:
                    seen[q] = min(per_proc, seen[q] + rng.randrange(3))
            rec = Interval(pid, idx, VectorClock(seen), 0, 64)
            rec.record_write(rng.randrange(32), rng.randrange(64))
            rec.record_read(rng.randrange(32), rng.randrange(64))
            intervals.append(rec)

    def search():
        stats = PairSearchStats()
        return sum(1 for _ in find_concurrent_pairs(intervals, stats)), stats

    count, stats = benchmark(search)
    assert stats.comparisons == (nprocs * (nprocs - 1) // 2) * per_proc ** 2
    assert 0 < count <= stats.comparisons


def test_pair_search_pruned_epoch(benchmark):
    """The ordering-bypass variant on the same epoch population: same
    pairs, far fewer comparisons (the paper's 'many of the comparisons
    can be bypassed')."""
    from repro.core.concurrency import (group_by_pid, iter_window_pairs,
                                        process_blocks, scan_windows)

    rng = random.Random(42)
    intervals = []
    nprocs, per_proc = 8, 20
    seen = [[0] * nprocs for _ in range(nprocs)]
    for idx in range(1, per_proc + 1):
        for pid in range(nprocs):
            if rng.random() < 0.3:
                other = rng.randrange(nprocs)
                for r in range(nprocs):
                    seen[pid][r] = max(seen[pid][r], seen[other][r])
            seen[pid][pid] = idx
            rec = Interval(pid, idx, VectorClock(seen[pid]), 0, 64)
            rec.record_write(rng.randrange(32), rng.randrange(64))
            intervals.append(rec)

    def search():
        stats = PairSearchStats()
        by_pid = group_by_pid(intervals)
        _work, windows = scan_windows(by_pid, process_blocks(by_pid), stats)
        count = sum(1 for _ in iter_window_pairs(windows))
        return count, stats

    count, stats = benchmark(search)
    naive = PairSearchStats()
    naive_count = sum(1 for _ in find_concurrent_pairs(intervals, naive))
    assert count == naive_count
    assert stats.comparisons < naive.comparisons
