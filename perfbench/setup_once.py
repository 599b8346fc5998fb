"""One set-up of a workload in a fresh process, for ``setup_s``.

Usage, from the root of a checkout (``run.py`` starts it):

    python3 perfbench/setup_once.py WORKLOAD SEED WORKDIR

Imports ``isocone.cli``, builds the workload's fixtures, writes its input
files into WORKDIR and prints the ``CLOCK_MONOTONIC`` time at which it
finished.  That clock is shared by all processes on Linux, so the caller
subtracts the time at which it started this process and gets the time
from process start to the point where the first query could run,
interpreter start-up and every import included.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import isocone.cli  # noqa: E402,F401  (timed: the import a user pays)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
