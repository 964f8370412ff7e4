"""The barrier-time race-detection algorithm (paper §4, steps 1–5).

The detector runs on the barrier master.  Inputs: every interval of the
closing epoch (their notices arrived on barrier-arrival messages; their
word bitmaps stayed with their creators).  It

1. finds concurrent interval pairs by constant-time vector-timestamp
   comparison,
2. winnows them to pairs with page-level overlap of notices — the *check
   list*,
3. retrieves, in an extra message round, exactly the word bitmaps the check
   list names,
4. intersects those bitmaps: page overlap with disjoint words is false
   sharing; any common word with at least one write is a data race, and
5. reports the race with the affected shared-segment address (resolved to a
   symbol), the interval indexes, and the epoch.

Every epoch goes through one pipeline over a *plan* that assigns the
epoch's process-pair blocks to owners: the **candidates** step (steps 1–2
plus the coarse-filter plan and the needed-bitmap set,
:func:`find_candidates`), the bitmap round (step 3), the **resolve** step
(step 4: dedup-free candidate reports per check entry) and the **commit**
(step 5: cross-epoch dedup and every statistic).  Centralized detection
(:meth:`RaceDetector.run_epoch`) is the one-owner plan — the coordinator
owns every block; sharded detection (``--sharded-detection``) partitions
the blocks over several owners and tree-reduces the candidates back to the
same commit.

Every step's work is charged to the owner's virtual clock under the
``INTERVALS`` or ``BITMAPS`` category so that Figure 3's overhead
decomposition falls out of the ledger.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.bitmap import Bitmap, digests_disjoint
from repro.core.checklist import (CheckEntry, OverlapPage, bitmaps_needed,
                                  build_check_list, build_check_list_fast,
                                  index_meetings, overlap_work)
from repro.core.concurrency import (Block, PairSearchStats,
                                    find_concurrent_pairs, group_by_pid,
                                    iter_window_pairs, process_blocks,
                                    scan_windows)
from repro.core.report import (IntervalRef, RaceKind, RaceReport,
                               decode_report_key, encode_report_key)
from repro.dsm.interval import Interval
from repro.errors import RetryExhaustedError
from repro.net.message import WireSizer
from repro.net.transport import Transport
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory, CostModel


#: Relative cost of one inverted-index (pair, page) meeting vs one
#: notice-merge probe, for the whole-epoch check-list strategy choice.
#: Calibrated on the TSP (lock-dense) / Water (barrier) captures in
#: ``benchmarks/bench_wallclock.py``.
INDEX_MEETING_COST = 3

#: Below this many modeled comparisons an epoch is too small for the
#: window scan to pay for its own setup; the candidates step runs the
#: naive pair search instead (identical output by construction).
SMALL_EPOCH_COMPARISONS = 4096


@dataclass
class EpochSummary:
    """One epoch's detection work, retained for diagnostics."""

    epoch: int
    intervals: int
    comparisons: int
    concurrent_pairs: int
    check_list_entries: int
    bitmaps_fetched: int
    races: int
    #: Check entries that could not be resolved because a crash destroyed
    #: one side's word bitmaps (reported, never dropped).
    unverifiable: int = 0


@dataclass
class DetectorStats:
    """Aggregate counters across all epochs of one run (Table 3 inputs)."""

    epochs_checked: int = 0
    intervals_total: int = 0
    intervals_used: int = 0          # intervals in >=1 overlapping concurrent pair
    interval_comparisons: int = 0
    concurrent_pairs: int = 0
    overlapping_pairs: int = 0       # check-list entries
    bitmaps_created: int = 0
    bitmaps_fetched: int = 0
    bitmap_comparisons: int = 0
    races_found: int = 0
    races_suppressed_not_first: int = 0
    #: Bitmap-round exchanges abandoned after the reliable channel's retry
    #: budget ran out (lossy network only; see docs/robustness.md).
    bitmap_rounds_failed: int = 0
    #: Conservative page-granularity reports emitted in place of word
    #: reports whose bitmaps could not be retrieved.
    page_granularity_reports: int = 0
    #: Concurrent overlapping pairs whose race check could not be run
    #: because a node crash (recovered without a checkpoint) destroyed the
    #: word bitmaps of at least one side.  Each such pair is surfaced as
    #: explicit ``verdict="unverifiable"`` report entries — the degraded
    #: detector stays sound by never silently dropping a check.
    unverifiable_pairs: int = 0
    #: Individual unverifiable report entries emitted (>= pair count: one
    #: per access-kind combination per overlapping page).
    unverifiable_reports: int = 0
    #: Two-level filter (``--coarse-filter``): digest pre-checks performed
    #: on check-list access-kind combinations.
    granule_checks: int = 0
    #: Combinations whose digests collided — the word bitmaps must still
    #: be fetched and intersected.
    granule_hits: int = 0
    #: Combinations the digests proved empty: their bitmap fetches and
    #: comparisons were skipped outright (the filter's win).
    pairs_filtered: int = 0
    #: Per-epoch history, in check order (includes consolidation passes).
    epoch_history: List["EpochSummary"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; ``from_dict`` round-trips it exactly
        (coordinator-state migration on master failover)."""
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if f.name != "epoch_history"}
        # The filter counters only exist on filter-on runs; omitting them
        # when zero keeps filter-off journal/checkpoint bytes (and their
        # priced sizes) byte-identical to pre-filter builds.
        if not (self.granule_checks or self.granule_hits
                or self.pairs_filtered):
            for name in ("granule_checks", "granule_hits", "pairs_filtered"):
                del data[name]
        data["epoch_history"] = [dataclasses.asdict(s)
                                 for s in self.epoch_history]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DetectorStats":
        history = [EpochSummary(**entry) for entry in data["epoch_history"]]
        scalars = {k: v for k, v in data.items() if k != "epoch_history"}
        return cls(epoch_history=history, **scalars)

    @property
    def intervals_used_fraction(self) -> float:
        """Table 3 "Intervals Used": share of intervals involved in at
        least one concurrent pair with page overlap."""
        if self.intervals_total == 0:
            return 0.0
        return self.intervals_used / self.intervals_total

    @property
    def bitmaps_used_fraction(self) -> float:
        """Table 3 "Bitmaps Used": share of created bitmaps that had to be
        retrieved to separate false from true sharing."""
        if self.bitmaps_created == 0:
            return 0.0
        return self.bitmaps_fetched / self.bitmaps_created


# ---------------------------------------------------------------------- #
# Plans.  An epoch's cross-process pair blocks are assigned to owner
# pids; each owner runs candidates -> bitmap round -> resolve for its
# blocks on its own clock, and the dedup-free candidate items commit on
# the coordinator.  Blocks partition the pairs exactly, so per-owner
# aggregates sum to the whole-epoch figures and the key-sorted item
# streams merge into the whole-epoch check-list order: reports are
# byte-identical however the blocks are assigned.  The sharded
# orchestration (scatter, reduce, crash fallback) lives in
# :mod:`repro.dsm.cvm`; everything here is pure detection logic.
# ---------------------------------------------------------------------- #
@dataclass
class DetectShard:
    """One owner's slice of an epoch: a set of process-pair blocks."""

    owner: int
    #: Assigned (p, q) blocks, p < q, in canonical block order.
    blocks: List[Block] = field(default_factory=list)
    #: Naive comparison count of the assigned blocks (sum of
    #: ``|I_p| * |I_q|``) — the owner's INTERVALS charge and the
    #: load-balancing weight.
    model_comparisons: int = 0


@dataclass
class ShardPlan:
    """Assignment of one epoch's pair blocks to owners."""

    #: Owner pids, coordinator first (the reduce root).  A single owner
    #: is centralized detection: it holds every block.
    owners: List[int]
    by_pid: Dict[int, List[Interval]]
    shards: Dict[int, DetectShard]
    intervals: List[Interval]
    #: Sum of all block weights == ``model_comparison_count(intervals)``.
    model_comparisons: int
    lost_present: bool

    @property
    def centralized(self) -> bool:
        return len(self.owners) == 1


def plan_blocks(intervals: List[Interval], owners: List[int]) -> ShardPlan:
    """Assign the epoch's pair blocks to ``owners`` (coordinator first).

    Assignment is greedy weight-balanced over the block weights
    ``|I_p| * |I_q|``, restricted to owners that are an endpoint of the
    block (they already hold half the records locally); blocks with no
    live endpoint owner land on the coordinator, which holds every
    record.  Deterministic: blocks are visited in canonical order and
    ties break by owner rank.
    """
    by_pid = group_by_pid(intervals)
    owner_rank = {pid: rank for rank, pid in enumerate(owners)}
    load: Dict[int, int] = {pid: 0 for pid in owners}
    shards = {pid: DetectShard(owner=pid) for pid in owners}
    total = 0
    for p, q in process_blocks(by_pid):
        weight = len(by_pid[p]) * len(by_pid[q])
        total += weight
        candidates = [x for x in (p, q) if x in owner_rank]
        if candidates:
            owner = min(candidates, key=lambda x: (load[x], owner_rank[x]))
        else:
            owner = owners[0]
        shards[owner].blocks.append((p, q))
        shards[owner].model_comparisons += weight
        load[owner] += weight
    return ShardPlan(owners=list(owners), by_pid=by_pid, shards=shards,
                     intervals=list(intervals), model_comparisons=total,
                     lost_present=any(rec.lost for rec in intervals))


@dataclass
class Candidates:
    """The candidates step's output for one owner's blocks."""

    #: Modeled (naive) comparisons of the blocks — the INTERVALS charge.
    comparisons: int
    concurrent_pairs: int
    #: Notice-merge probes of the page-overlap winnowing (INTERVALS).
    probe_work: int
    check_list: List[CheckEntry]
    #: Per check entry: the overlap pages to intersect (the coarse
    #: filter's survivors when it is on, else ``entry.pages``), or None
    #: for an entry touching a crash-lost interval (unverifiable).
    pages: List[Optional[List[OverlapPage]]]
    #: Bitmaps the resolvable entries name: (pid, index, page, kind).
    needed: Set[Tuple[int, int, int, str]]
    granule_checks: int = 0
    granule_hits: int = 0


def find_candidates(plan: ShardPlan, shard: DetectShard,
                    coarse_filter: bool) -> Candidates:
    """Candidates step: pair search, check list, coarse-filter plan and
    needed-bitmap set for ``shard``'s blocks.  Pure: no clock, no state.

    Two strategies are chosen from the epoch itself; both give the
    output of :func:`~repro.core.concurrency.find_concurrent_pairs` +
    :func:`~repro.core.checklist.build_check_list` exactly.  When one
    owner holds the whole epoch, a small epoch runs that naive search
    outright (the window scan would not pay for its setup), and a large
    one builds the check list from an inverted page index when page
    meetings are cheaper than enumerating the scanned windows (barrier
    workloads; lock workloads pile ordered intervals onto the same pages
    and go the other way).  A shard of a partitioned epoch always scans
    and enumerates its windows.
    """
    search = PairSearchStats()
    whole = plan.centralized
    if whole and shard.model_comparisons <= SMALL_EPOCH_COMPARISONS:
        pairs = list(find_concurrent_pairs(plan.intervals, search))
        probe_work = sum(overlap_work(a, b) for a, b in pairs)
        check_list = build_check_list(pairs)
    else:
        probe_work, windows = scan_windows(plan.by_pid, shard.blocks, search)
        if whole and (INDEX_MEETING_COST * index_meetings(plan.intervals)
                      <= probe_work):
            check_list = build_check_list_fast(plan.intervals)
        else:
            check_list = build_check_list(iter_window_pairs(windows))
    cand = Candidates(comparisons=shard.model_comparisons,
                      concurrent_pairs=search.concurrent_pairs,
                      probe_work=probe_work, check_list=check_list,
                      pages=[], needed=set())
    # Crash degradation: an interval marked *lost* kept its page-level
    # notices (they travelled on synchronization messages before the
    # crash) but its word bitmaps died with the node, so it still takes
    # part in the search and the check list — its entries just cannot be
    # bitmap-resolved.  Two-level filter (first level): every other
    # entry's combinations are pre-checked against the coarse digests
    # that arrived piggy-backed on the interval records; digest-disjoint
    # combinations are provably race-free and leave the fetch set *and*
    # the comparison loop.
    resolvable: List[CheckEntry] = []
    for entry in check_list:
        if plan.lost_present and (entry.a.lost or entry.b.lost):
            cand.pages.append(None)
            continue
        pages = entry.pages
        if coarse_filter:
            pages, checks, hits = _filter_pages(entry)
            cand.granule_checks += checks
            cand.granule_hits += hits
            entry = CheckEntry(entry.a, entry.b, pages)
        cand.pages.append(pages)
        resolvable.append(entry)
    cand.needed = bitmaps_needed(resolvable)
    return cand


def _filter_pages(entry: CheckEntry) -> Tuple[List[OverlapPage], int, int]:
    """Granule pre-check of one check entry: returns the surviving
    overlap pages (combination flags cleared where the digests prove the
    word bitmaps disjoint, pages with no surviving flag dropped) plus the
    (checks, hits) counts for stats and cycle charging."""
    a, b = entry.a, entry.b
    out: List[OverlapPage] = []
    checks = hits = 0
    for ov in entry.pages:
        ww = arbw = awbr = False
        if ov.write_write:
            checks += 1
            if not digests_disjoint(a.digest(ov.page, "write"),
                                    b.digest(ov.page, "write")):
                ww = True
                hits += 1
        if ov.a_read_b_write:
            checks += 1
            if not digests_disjoint(a.digest(ov.page, "read"),
                                    b.digest(ov.page, "write")):
                arbw = True
                hits += 1
        if ov.a_write_b_read:
            checks += 1
            if not digests_disjoint(a.digest(ov.page, "write"),
                                    b.digest(ov.page, "read")):
                awbr = True
                hits += 1
        if ww or arbw or awbr:
            out.append(OverlapPage(page=ov.page, write_write=ww,
                                   a_read_b_write=arbw,
                                   a_write_b_read=awbr))
    return out, checks, hits


def _combos(ov: OverlapPage) -> List[Tuple[str, str, RaceKind]]:
    """The (a access, b access, kind) combinations an overlap page flags,
    in the fixed order every item builder uses."""
    combos = []
    if ov.write_write:
        combos.append(("write", "write", RaceKind.WRITE_WRITE))
    if ov.a_read_b_write:
        combos.append(("read", "write", RaceKind.READ_WRITE))
    if ov.a_write_b_read:
        combos.append(("write", "read", RaceKind.READ_WRITE))
    return combos


@dataclass
class ShardItem:
    """One check entry's dedup-free candidate reports.

    ``key`` is the canonical check-entry key ``(a.pid, b.pid, a.index,
    b.index)`` — unique across owners (an entry belongs to exactly one
    block) — so a plain sorted merge of per-owner item lists reproduces
    the whole-epoch check-list order, and the commit replays the
    cross-epoch dedup in that order.
    """

    key: Tuple[int, int, int, int]
    #: "race" (word bitmaps intersected), "page" (page-granularity
    #: fallback: a bitmap exchange failed) or "unverifiable" (crash-lost
    #: side).
    kind: str
    #: Candidate reports in generation order, *not* deduped — dedup
    #: against ``_seen_keys`` is the commit's job.
    reports: List[RaceReport]
    #: Unverifiable-pair dedup key (``kind == "unverifiable"`` only).
    pair_key: Optional[Tuple] = None


@dataclass
class ShardResult:
    """One owner's pass: its candidates plus the resolve step's output."""

    owner: int
    candidates: Candidates
    bitmap_comparisons: int = 0
    #: Message/byte counts of the owner's bitmap fetches.
    fetch_messages: int = 0
    fetch_bytes: int = 0
    #: Owners whose bitmap exchange exhausted the reliable channel's
    #: retry budget (centralized round only; the sharded round raises).
    failed_owners: Set[int] = field(default_factory=set)
    #: Candidate items in canonical entry-key order.
    items: List[ShardItem] = field(default_factory=list)


class RaceDetector:
    """On-the-fly detector; one instance per CVM system."""

    def __init__(self, page_size_words: int, cost_model: CostModel,
                 sizer: WireSizer, transport: Transport,
                 symbol_for, master_pid: int = 0,
                 first_races_only: bool = False,
                 coarse_filter: bool = False):
        self.page_size_words = page_size_words
        self.cost_model = cost_model
        self.sizer = sizer
        self.transport = transport
        #: Callable addr -> str, normally SharedSegment.symbol_for.
        self.symbol_for = symbol_for
        self.master_pid = master_pid
        self.first_races_only = first_races_only
        #: Two-level filter: pre-check every check-list combination
        #: against the coarse digests piggy-backed on the interval
        #: records, fetching and intersecting word bitmaps only on
        #: granule hits.  The filter only skips comparisons it can prove
        #: empty, so reports are byte-identical with it off — only the
        #: fetch round shrinks.  (DsmConfig defaults this on for
        #: detection runs; the bare constructor defaults off so direct
        #: detector use reproduces the paper's unfiltered pipeline.)
        self.coarse_filter = coarse_filter
        self.stats = DetectorStats()
        self.races: List[RaceReport] = []
        #: ``verdict="unverifiable"`` entries (crash-lost metadata), kept
        #: apart from confirmed races so race artifacts stay comparable
        #: across runs while the degradation is still fully reported.
        self.unverifiable: List[RaceReport] = []
        self._seen_keys: Set[Tuple] = set()
        self._unverifiable_pair_keys: Set[Tuple] = set()
        self._first_race_epoch: Optional[int] = None
        self._empty = Bitmap(page_size_words)

    # ------------------------------------------------------------------ #
    # Entry point: one epoch's analysis, run on the barrier master.
    # ------------------------------------------------------------------ #
    def run_epoch(self, intervals: List[Interval], epoch: int,
                  master_clock: VirtualClock) -> List[RaceReport]:
        """Analyze a closed epoch; returns the new race reports.

        The one-owner plan: the master owns every block, runs the
        pipeline on ``master_clock`` and commits it directly."""
        plan = plan_blocks(intervals, [self.master_pid])
        res = self.compute_shard(plan.shards[self.master_pid], plan, epoch,
                                 master_clock)
        return self.commit_sharded(plan, [res], res.items, epoch,
                                   master_clock)

    # ------------------------------------------------------------------ #
    # State migration (master failover).
    #
    # Everything a replacement coordinator needs to continue detection
    # with identical verdicts *and* identical artifacts: the accumulated
    # reports, the aggregate statistics, and — critically — the cross-epoch
    # deduplication state.  ``RaceReport.key()`` deliberately excludes the
    # epoch, so dropping ``_seen_keys`` on migration would re-report or
    # mis-deduplicate races found before the crash.
    # ------------------------------------------------------------------ #
    def serialize_state(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of all mutable detector state.

        ``restore_state`` on a freshly constructed detector (same
        configuration, possibly a different ``master_pid``) reproduces the
        original byte for byte — the coordinator journals this dict at
        every barrier and replays it into the elected successor."""
        return {
            "stats": self.stats.to_dict(),
            "races": [r.to_dict() for r in self.races],
            "unverifiable": [r.to_dict() for r in self.unverifiable],
            "seen_keys": sorted(
                (encode_report_key(k) for k in self._seen_keys),
                key=json.dumps),
            "unverifiable_pair_keys": sorted(
                [list(a), list(b)]
                for a, b in self._unverifiable_pair_keys),
            "first_race_epoch": self._first_race_epoch,
        }

    def restore_state(self, data: Dict[str, Any]) -> None:
        """Install a ``serialize_state`` snapshot, replacing all mutable
        state.  Constructor-time configuration (cost model, sizer,
        ``master_pid``) is deliberately untouched: the role's *owner*
        changed, not the algorithm."""
        self.stats = DetectorStats.from_dict(data["stats"])
        self.races = [RaceReport.from_dict(d) for d in data["races"]]
        self.unverifiable = [RaceReport.from_dict(d)
                             for d in data["unverifiable"]]
        self._seen_keys = {decode_report_key(k) for k in data["seen_keys"]}
        self._unverifiable_pair_keys = {
            (tuple(a), tuple(b))
            for a, b in data["unverifiable_pair_keys"]}
        self._first_race_epoch = data["first_race_epoch"]

    # ------------------------------------------------------------------ #
    # The pipeline.  ``plan_shards`` -> per-owner ``compute_shard`` ->
    # pairwise ``merge_shard_items`` -> ``commit_sharded`` on the
    # coordinator; ``run_epoch`` is the same pipeline on a one-owner
    # plan.  The cvm layer drives the sharded phases and prices the
    # distribution traffic.
    # ------------------------------------------------------------------ #
    def plan_shards(self, intervals: List[Interval],
                    owners: List[int]) -> Optional[ShardPlan]:
        """Partition the epoch's pair blocks over ``owners`` (coordinator
        first; see :func:`plan_blocks`).  Returns None when sharding
        cannot help — fewer than two owners, or no cross-process blocks —
        in which case the caller runs ``run_epoch`` for this epoch."""
        if len(owners) < 2:
            return None
        plan = plan_blocks(intervals, owners)
        if len(plan.by_pid) < 2:
            return None
        return plan

    def compute_shard(self, shard: DetectShard, plan: ShardPlan,
                      epoch: int, clock: VirtualClock) -> ShardResult:
        """Candidates, bitmap round and resolve for one owner's blocks,
        charged to the owner's ``clock``: the modeled comparisons and the
        overlap probes under INTERVALS, the digest pre-checks under
        COARSE_FILTER, one BITMAPS charge per bitmap comparison.

        The one-owner plan charges at least one comparison and fetches
        through the master's bitmap round (:meth:`_fetch_bitmaps`); a
        shard of a partitioned epoch fetches what its owner does not
        hold under SHARDED_DETECT, and
        :class:`repro.errors.RetryExhaustedError` propagates so the
        caller can fall back to ``run_epoch`` for the epoch.

        Mutates **no** detector state: every counter lives in the
        returned :class:`ShardResult`, so an abandoned sharded pass (crash
        or network fallback) leaves the detector exactly as it was.
        """
        cand = find_candidates(plan, shard, self.coarse_filter)
        cm = self.cost_model
        comparisons = cand.comparisons
        if plan.centralized:
            comparisons = max(1, comparisons)
        clock.advance(cm.interval_compare * comparisons,
                      CostCategory.INTERVALS)
        clock.advance(cm.page_overlap_check * cand.probe_work,
                      CostCategory.INTERVALS)
        if self.coarse_filter:
            clock.advance(cm.granule_check * cand.granule_checks,
                          CostCategory.COARSE_FILTER)
        res = ShardResult(owner=shard.owner, candidates=cand)
        self._fetch_bitmaps(res, plan.centralized, clock)
        self._resolve(res, epoch, clock)
        return res

    @staticmethod
    def merge_shard_items(left: List[ShardItem],
                          right: List[ShardItem]) -> List[ShardItem]:
        """One tree-reduce step: merge two key-sorted item lists.  Keys
        are unique across shards, so this is a plain sorted merge."""
        merged: List[ShardItem] = []
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i].key <= right[j].key:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged

    def shard_reduce_bytes(self, items: List[ShardItem]) -> int:
        """Encoded size of one reduce payload: a per-item entry header
        plus a fixed record per candidate report (kind, page, offset,
        epoch, two interval refs, verdict flags)."""
        total = self.sizer.ints(1)
        for item in items:
            total += self.sizer.ints(6)
            total += len(item.reports) * self.sizer.ints(10)
        return total

    def commit_sharded(self, plan: ShardPlan, results: List[ShardResult],
                       items: List[ShardItem], epoch: int,
                       master_clock: VirtualClock) -> List[RaceReport]:
        """Commit step on the coordinator: fold the candidate stream
        through the cross-epoch dedup state and update every statistic.

        ``items`` is the fully merged, key-sorted candidate list — the
        whole-epoch check-list order — so first-occurrence dedup against
        ``_seen_keys`` keeps the same reports in the same order however
        the blocks were assigned.  Charges nothing: every cycle was
        spent on the owners' clocks.
        """
        st = self.stats
        st.epochs_checked += 1
        for rec in plan.intervals:
            st.bitmaps_created += (len(rec.read_bitmaps)
                                   + len(rec.write_bitmaps))
        st.intervals_total += len(plan.intervals)
        st.interval_comparisons += plan.model_comparisons
        used: Set[Tuple[int, int]] = set()
        needed: Set[Tuple[int, int, int, str]] = set()
        failed: Set[int] = set()
        pairs = entries = 0
        for r in results:
            cand = r.candidates
            pairs += cand.concurrent_pairs
            entries += len(cand.check_list)
            for entry in cand.check_list:
                used.add((entry.a.pid, entry.a.index))
                used.add((entry.b.pid, entry.b.index))
            needed |= cand.needed
            failed |= r.failed_owners
            st.bitmap_comparisons += r.bitmap_comparisons
            st.granule_checks += cand.granule_checks
            st.granule_hits += cand.granule_hits
            st.pairs_filtered += cand.granule_checks - cand.granule_hits
        st.concurrent_pairs += pairs
        st.overlapping_pairs += entries
        st.intervals_used += len(used)
        st.bitmap_rounds_failed += len(failed)
        fetched = sum(1 for pid, _idx, _page, _kind in needed
                      if pid not in failed)
        st.bitmaps_fetched += fetched

        new_races: List[RaceReport] = []
        new_unverifiable: List[RaceReport] = []
        seen = self._seen_keys
        for item in items:
            if item.kind == "unverifiable":
                if item.pair_key not in self._unverifiable_pair_keys:
                    self._unverifiable_pair_keys.add(item.pair_key)
                    st.unverifiable_pairs += 1
                out = new_unverifiable
            else:
                out = new_races
            for report in item.reports:
                key = report.key()
                if key not in seen:
                    seen.add(key)
                    out.append(report)
                    if item.kind == "unverifiable":
                        st.unverifiable_reports += 1
                    elif item.kind == "page":
                        st.page_granularity_reports += 1
        self.unverifiable.extend(new_unverifiable)

        st.epoch_history.append(EpochSummary(
            epoch=epoch, intervals=len(plan.intervals),
            comparisons=plan.model_comparisons, concurrent_pairs=pairs,
            check_list_entries=entries, bitmaps_fetched=fetched,
            races=len(new_races), unverifiable=len(new_unverifiable)))

        if self.first_races_only and new_races:
            if self._first_race_epoch is None:
                self._first_race_epoch = epoch
            elif epoch > self._first_race_epoch:
                # Races in a later epoch are necessarily affected by the
                # earlier ones (a barrier orders the epochs), hence not
                # "first" races (§6.4).
                st.races_suppressed_not_first += len(new_races)
                return []
        self.races.extend(new_races)
        st.races_found += len(new_races)
        return new_races

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    def _fetch_bitmaps(self, res: ShardResult, centralized: bool,
                       clock: VirtualClock) -> None:
        """The bitmap round for ``res.candidates.needed``: one request and
        one reply per process that owns needed bitmaps, except the
        fetching owner itself (its bitmaps are local).

        Centralized, it is the paper's extra barrier round under BITMAPS:
        a pid whose exchange exhausts the reliable channel's retry budget
        lands in ``res.failed_owners`` and its check entries degrade to
        page-granularity reports instead of being silently dropped.  For
        a shard the round exists only because of sharding (fetches may
        overlap across owners), so it is priced under SHARDED_DETECT and
        RetryExhaustedError propagates to trigger the fallback."""
        if centralized:
            tag, category = "bitmap", CostCategory.BITMAPS
        else:
            tag, category = "shard_bitmap", CostCategory.SHARDED_DETECT
        owner = res.owner
        by_owner: Dict[int, int] = {}
        for pid, _idx, _page, _kind in res.candidates.needed:
            by_owner[pid] = by_owner.get(pid, 0) + 1
        for pid in sorted(by_owner):
            if pid == owner:
                continue
            count = by_owner[pid]
            req_bytes = self.sizer.ints(1 + 4 * count)
            reply_bytes = self.sizer.ints(1) + count * (
                self.sizer.ints(4) + self.sizer.bitmap())
            try:
                for name, src, dst, nbytes, frag in (
                        ("request", owner, pid, req_bytes, False),
                        ("reply", pid, owner, reply_bytes, True)):
                    msg = self.transport.send(
                        f"{tag}_{name}", src, dst, None, nbytes, clock,
                        category=category, fragmentable=frag)
                    res.fetch_messages += 1
                    res.fetch_bytes += msg.nbytes
                    if centralized:
                        self.transport.stats.add_bitmap_round_bytes(
                            msg.nbytes)
            except RetryExhaustedError:
                if not centralized:
                    raise
                res.failed_owners.add(pid)

    def _resolve(self, res: ShardResult, epoch: int,
                 clock: VirtualClock) -> None:
        """Resolve step: one dedup-free item per check entry that yields
        candidates, in check-list order — word-bitmap intersections, or
        page-granularity reports where a bitmap exchange failed, or
        unverifiable entries where a crash destroyed a side's bitmaps."""
        cand = res.candidates
        failed = res.failed_owners
        for entry, pages in zip(cand.check_list, cand.pages):
            a, b = entry.a, entry.b
            key = (a.pid, b.pid, a.index, b.index)
            if pages is None:
                res.items.append(self._unverifiable_item(entry, key, epoch))
            elif failed and (a.pid in failed or b.pid in failed):
                # Deliberately over the *unfiltered* pages: with the
                # exchange failed, the conservative report matches what
                # the filter-off detector would emit.
                res.items.append(ShardItem(
                    key=key, kind="page",
                    reports=self._page_reports(entry, epoch)))
            else:
                reports = self._race_reports(entry, pages, epoch, clock, res)
                if reports:
                    res.items.append(ShardItem(key=key, kind="race",
                                               reports=reports))

    def _race_reports(self, entry: CheckEntry, pages: List[OverlapPage],
                      epoch: int, clock: VirtualClock,
                      res: ShardResult) -> List[RaceReport]:
        """Intersect the word bitmaps of every flagged combination; each
        comparison is one BITMAPS charge.  Absent bitmaps are empty (this
        is where §6.5's diff-derived write detection silently loses
        same-value overwrites: the diff produced no bits)."""
        a, b = entry.a, entry.b
        cost = self.cost_model.bitmap_compare_per_word * self.page_size_words
        reports: List[RaceReport] = []
        for ov in pages:
            page = ov.page
            for a_access, b_access, kind in _combos(ov):
                res.bitmap_comparisons += 1
                clock.advance(cost, CostCategory.BITMAPS)
                bm_a = (a.write_bitmaps if a_access == "write"
                        else a.read_bitmaps).get(page) or self._empty
                bm_b = (b.write_bitmaps if b_access == "write"
                        else b.read_bitmaps).get(page) or self._empty
                for bit in bm_a.intersection_bits(bm_b):
                    addr = page * self.page_size_words + bit
                    reports.append(RaceReport(
                        kind=kind, addr=addr, symbol=self.symbol_for(addr),
                        page=page, offset=bit, epoch=epoch,
                        a=IntervalRef(a.pid, a.index, a_access, a.sync_label),
                        b=IntervalRef(b.pid, b.index, b_access,
                                      b.sync_label)))
        return reports

    def _page_reports(self, entry: CheckEntry, epoch: int,
                      **flags: Any) -> List[RaceReport]:
        """Whole-page reports for every flagged combination of every
        overlap page, explicitly ``granularity="page"`` — the affected
        range is never silently dropped (ROADMAP robustness goal; compare
        Butelle & Coti's requirement that detection metadata survive an
        unreliable substrate).  ``flags`` adds the unverifiable verdict."""
        a, b = entry.a, entry.b
        reports: List[RaceReport] = []
        for ov in entry.pages:
            addr = ov.page * self.page_size_words
            for a_access, b_access, kind in _combos(ov):
                reports.append(RaceReport(
                    kind=kind, addr=addr, symbol=self.symbol_for(addr),
                    page=ov.page, offset=0, epoch=epoch,
                    a=IntervalRef(a.pid, a.index, a_access, a.sync_label),
                    b=IntervalRef(b.pid, b.index, b_access, b.sync_label),
                    granularity="page", **flags))
        return reports

    def _unverifiable_item(self, entry: CheckEntry,
                           key: Tuple[int, int, int, int],
                           epoch: int) -> ShardItem:
        """Degraded-mode item for a check entry touching a crash-lost
        interval: the pair is concurrent and its notices overlap, but the
        lost side's word bitmaps died with the node, so the race can be
        neither confirmed nor refuted.  The pair key travels with the
        item because the pair count belongs to the commit."""
        a, b = entry.a, entry.b
        ordered = sorted((a, b), key=lambda r: (r.pid, r.index))
        lost = tuple(f"P{rec.pid}:{rec.index}" for rec in ordered
                     if rec.lost)
        return ShardItem(
            key=key, kind="unverifiable",
            reports=self._page_reports(entry, epoch, verdict="unverifiable",
                                       lost_intervals=lost),
            pair_key=tuple((rec.pid, rec.index) for rec in ordered))
