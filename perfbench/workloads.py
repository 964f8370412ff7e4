"""The benchmark's workloads, the inputs they derive from a seed, and the
output check.

Each workload is one application at one scale and configuration, run
exactly as :meth:`repro.apps.base.AppSpec.run` runs it: build the
:class:`~repro.dsm.config.DsmConfig` with ``AppSpec.config``, then
``CVM(config).run(app, params)``.  The benchmark builds the CVM itself so a
traced run can hand a wrapped app function to ``CVM.run`` and read the
scheduler's switch count afterwards.  README.md says why each workload was
chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

if not os.path.isdir(os.path.join(SRC, "repro")):
    raise SystemExit(f"perfbench: no program source at {SRC}/repro; run "
                     "the benchmark from the root of a full checkout")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.apps.registry import get_app  # noqa: E402
from repro.apps.sor import SorParams  # noqa: E402
from repro.dsm.cvm import CVM, RunResult  # noqa: E402
from repro.harness.format import race_report_lines  # noqa: E402

#: The seed whose outputs are committed in expected.json.
DEFAULT_SEED = 0

#: Network faults, crashes with checkpoint recovery, and sharded detection:
#: every robustness layer at once.
CHAOS = dict(loss_rate=0.05, duplicate_rate=0.02, reorder_rate=0.02,
             crash_rate=0.02, checkpoint=True, sharded_detection=True)


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: an app, its scale and its config."""

    name: str
    app: str
    nprocs: int
    params: Any = None
    config: Dict[str, Any] = field(default_factory=dict)
    #: DSL source compiled during set-up (the cold ``compiled_image``).
    dsl: Optional[Tuple[str, str]] = None

    @property
    def spec(self):
        return get_app(self.app)

    @property
    def seeded(self) -> bool:
        """True when the seed reaches the program's behaviour: under the
        default round-robin policy the scheduling seed is inert, so only
        the fault and crash schedules depend on it."""
        return bool(self.config)

    def dsm_config(self, seed: int, **extra: Any):
        rng = random.Random(seed)
        overrides = dict(self.config, seed=seed,
                         fault_seed=rng.randrange(1 << 30),
                         crash_seed=rng.randrange(1 << 30))
        overrides.update(extra)
        return self.spec.config(nprocs=self.nprocs, **overrides)

    def warm(self) -> None:
        """Do the one-time work the first run of this workload would do
        (the cold DSL compile)."""
        if self.dsl is not None:
            from repro.apps.dsl import compiled_image
            compiled_image(*self.dsl)


def _hashtab_dsl() -> Tuple[str, str]:
    from repro.apps.hashtab import SOURCE
    return ("hashtab", SOURCE)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sor-range", "sor", 8, SorParams(rows=192, cols=128,
                                              iterations=10)),
    Workload("water-locks", "water", 16),
    Workload("hashtab-dsl", "hashtab", 16, dsl=_hashtab_dsl()),
    Workload("water-chaos", "water", 16, config=CHAOS),
)}


def run_once(work: Workload, seed: int,
             app: Optional[Callable[..., Any]] = None,
             **extra: Any) -> Tuple[RunResult, CVM]:
    """One run, as ``AppSpec.run`` does it; ``app`` replaces the
    workload's app function (the traced run passes a wrapped one).

    Returns after every simulated-process thread has ended, also when the
    run raises, so nothing the run started outlives it."""
    spec = work.spec
    cvm = CVM(work.dsm_config(seed, **extra))
    try:
        return cvm.run(app or spec.func,
                       work.params or spec.default_params), cvm
    finally:
        join_threads(cvm)


def join_threads(cvm: CVM, timeout: float = 30.0) -> None:
    """Wait for every simulated-process thread of ``cvm`` to end."""
    for proc in cvm.scheduler.processes.values():
        if proc.thread is not None:
            proc.thread.join(timeout)
            if proc.thread.is_alive():
                raise RuntimeError(f"thread {proc.thread.name} did not end")


def fingerprint(res: RunResult) -> Dict[str, Any]:
    """The outputs the check compares: race reports, virtual time, the
    virtual-time ledger by category, traffic and access totals."""
    lines = race_report_lines(res)
    ledger = res.aggregate_ledger().totals
    fp = {
        "races": len(lines),
        "race_lines_sha256": hashlib.sha256(
            "\n".join(lines).encode("utf-8")).hexdigest(),
        "runtime_cycles": res.runtime_cycles,
        "ledger": {cat.value: ledger[cat] for cat in ledger},
        "messages": res.traffic.total_messages,
        "bytes": res.traffic.total_bytes,
        "shared_words": res.shared_instr_calls,
    }
    # Round-trip through JSON so a fresh value compares equal to a
    # committed one (floats survive exactly).
    return json.loads(json.dumps(fp, sort_keys=True))


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class OutputCheck:
    """Checks every run of one workload and counts the failures.

    * Every repetition must produce the first run's fingerprint.
    * On the default seed (and on every seed for a workload the seed does
      not reach) the fingerprint must equal the committed one.
    * ``sor-range`` reports no race; ``water-chaos`` reports exactly the
      races of ``water-locks`` on the same seed.
    """

    def __init__(self, work: Workload, seed: int,
                 expected: Optional[Dict[str, Any]] = None):
        self.work = work
        self.seed = seed
        self.expected = expected if expected is not None else load_expected()
        self.reference: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(msg)

    def raised(self, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(f"run raised {type(exc).__name__}: {exc}")

    def first(self, fp: Dict[str, Any],
              locks_fp: Optional[Dict[str, Any]] = None) -> None:
        """Check the first run's output; later runs must repeat it.
        ``locks_fp`` is the ``water-locks`` run a ``water-chaos`` check
        compares against; it counts as one more run attempted."""
        self.attempted += 1 if locks_fp is None else 2
        self.reference = fp
        work = self.work
        bad = []
        if self.seed == DEFAULT_SEED or not work.seeded:
            want = self.expected.get(work.name)
            if want != fp:
                bad.append("differs from expected.json"
                           + _diff_keys(want, fp))
        if work.name == "sor-range" and fp["races"] != 0:
            bad.append(f"reports {fp['races']} races, expected none")
        if locks_fp is not None:
            if locks_fp["race_lines_sha256"] != fp["race_lines_sha256"]:
                bad.append("race reports differ from water-locks on the "
                           "same seed")
            if locks_fp != self.expected.get("water-locks"):
                bad.append("the water-locks run differs from expected.json"
                           + _diff_keys(self.expected.get("water-locks"),
                                        locks_fp))
        if bad:
            self._fail(f"{work.name} seed {self.seed}: " + "; ".join(bad))

    def repeat(self, fp: Dict[str, Any], label: str = "repetition") -> None:
        self.attempted += 1
        if fp != self.reference:
            self._fail(f"{self.work.name} seed {self.seed}: {label} "
                       "differs from the first run"
                       + _diff_keys(self.reference, fp))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _diff_keys(want: Optional[Dict[str, Any]], got: Dict[str, Any]) -> str:
    if want is None:
        return " (no committed entry)"
    keys = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    return f" (fields: {', '.join(keys)})"
