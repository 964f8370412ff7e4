"""Set-up probe, run in a fresh interpreter by ``run.py``.

Does what must happen before a workload's first ``CVM.run`` -- import the
program, build the ``AppSpec`` and ``DsmConfig``, compile the DSL program
on a cold cache -- then prints ``time.perf_counter()``.  The parent takes
``setup_s`` as that time minus the time it started this interpreter; both
read the same system-wide monotonic clock.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    work = WORKLOADS[sys.argv[1]]
    work.dsm_config(int(sys.argv[2]))
    work.warm()
    print(repr(time.perf_counter()))
