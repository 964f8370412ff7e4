"""Host-speed reference: a fixed kernel timed between the benchmark's runs.

The benchmark runs on shared virtual machines whose single-thread speed
changes while it runs: on a 2-CPU host, the same run took 0.36 s in one
minute and 0.60 s a few minutes later, and the interpreter's start-up
time moved with it.  Host seconds as measured therefore say more about
the other tenants than about the program.  The time-valued end-to-end
metrics are scaled by this kernel's time instead, measured in the same
process and the same window as the runs, to read as host seconds on a
host where the kernel takes :data:`NOMINAL_S`.

Start-up time tracks a different reference: a fresh interpreter that
imports a fixed set of standard-library modules (:func:`startup`), scaled
to :data:`NOMINAL_STARTUP_S`.

The kernel imitates the program's two costs: a token handed between
threads through one ``threading.Condition`` with ``notify_all`` (as the
simulator's scheduler does), and dictionary work while the token is
held.  It belongs to the benchmark, so no change to the program moves it.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from time import perf_counter

#: Kernel time that defines the reference host speed.
NOMINAL_S = 0.010
#: Start-up reference time that defines the reference host speed.
NOMINAL_STARTUP_S = 0.150

STARTUP_IMPORTS = ("import argparse, dataclasses, decimal, email.parser, enum, "
                   "fractions, http.client, json, logging, statistics, "
                   "typing, unittest, xml.dom.minidom")

THREADS = 4
ROUNDS = 60
WORK = 300


def kernel() -> float:
    """Run the kernel once and return its wall time in seconds."""
    cv = threading.Condition()
    token = [0]

    def worker(i: int) -> None:
        table: dict = {}
        for _ in range(ROUNDS):
            with cv:
                while token[0] % THREADS != i:
                    cv.wait()
            for j in range(WORK):
                table[j & 63] = table.get(j & 63, 0) + i * j
            with cv:
                token[0] += 1
                cv.notify_all()

    threads = [threading.Thread(target=worker, args=(i,),
                                name=f"perfbench-ref-{i}")
               for i in range(THREADS)]
    t0 = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return perf_counter() - t0


def startup() -> float:
    """Start a fresh interpreter that imports :data:`STARTUP_IMPORTS`;
    return its wall time in seconds."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_IMPORTS], check=True,
                   timeout=120)
    return perf_counter() - t0
