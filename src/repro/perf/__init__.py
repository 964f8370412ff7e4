"""Wall-clock performance measurement (`repro.perf`).

Everything else in this repository measures *virtual* time — the paper's
cost model.  This package measures *real* time: how fast the Python
implementation itself runs, which is what the ROADMAP's "as fast as the
hardware allows" goal is about.  It provides

* :func:`timeit_best` — a minimal best-of-N wall-clock timer,
* :func:`capture_epochs` — run an application once and retain every
  interval batch the barrier master analyzed, so detection can be
  re-executed offline on identical inputs,
* :func:`time_detection` — replay captured epochs through a fresh
  :class:`~repro.core.detector.RaceDetector` and report wall-clock plus
  the verdicts,
* :func:`oracle_candidates` / :func:`production_candidates` — the
  detector's candidates step next to its naive oracle, letting
  ``benchmarks/bench_wallclock.py`` verify that the production step is
  both faster and observationally identical, and
* :class:`OracleCVM` / :func:`oracle_run` — full runs on the per-word
  access chain (:class:`OracleEnv`), the oracle of the production ``Env``
  for the equivalence tests and ``benchmarks/bench_endtoend.py``.
"""

from repro.perf.access_oracle import OracleCVM, OracleEnv, oracle_run
from repro.perf.timing import BenchSample, timeit_best
from repro.perf.detection import (CapturedEpoch, DetectionTiming,
                                  candidate_key, capture_epochs,
                                  oracle_candidates, production_candidates,
                                  time_detection)

__all__ = [
    "BenchSample",
    "CapturedEpoch",
    "DetectionTiming",
    "OracleCVM",
    "OracleEnv",
    "candidate_key",
    "capture_epochs",
    "oracle_candidates",
    "oracle_run",
    "production_candidates",
    "time_detection",
    "timeit_best",
]
