"""Set-up probe: import kdl, generate one workload's inputs, print the clock.

    python3 perfbench/probe.py <workload> <seed>

``run.py`` starts this several times and takes the time from just before
the process starts to the ``time.monotonic()`` value printed here, which
is the moment the first op would begin.
"""

import sys
import time

from run import import_program

import_program()
import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]))
print(time.monotonic())
