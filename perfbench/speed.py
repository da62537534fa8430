"""Host-speed reference: a fixed kernel timed between a run's ops.

The 2-core x86-64 machine this benchmark was built on shares its cores
with other tenants.  The same op took from 1.6 s to 4.1 s within a few
minutes, and the medians of two sets of ten runs of the same code
differed by up to 50%, while the op's own cost does not change.  Each run therefore times a
fixed reference kernel that runs no kdl code, in the same process, before
every op and after the last one, and scales its time metrics to the
kernel's nominal speed:

    reported time = measured time * NOMINAL_S / (median kernel time)

A host that is uniformly slower during a run leaves the reported numbers
unchanged; a change to kdl moves them as before, since the kernel does not
call it.  The raw figures are printed next to the scaled ones.

The kernel mixes the two kinds of work whose speed drifts: interpreted
Python (a plain integer loop) and numpy on small arrays (the refiner's
per-move objective on a 128x128x3 array).  It allocates under 1 MB, so it
does not move ``peak_rss_mb``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on that 2-core machine at the seed commit.  It only
# fixes the scale of the reported numbers and must stay constant, so that
# commits measured on one machine remain comparable.
NOMINAL_S = 0.040

SAMPLES_PER_CALL = 5


class SpeedReference:
    """Times the reference kernel on demand and keeps every sample."""

    def __init__(self):
        self._a = np.random.default_rng(0).random((128, 128, 3))
        self.samples: list[float] = []

    def _kernel(self):
        a = self._a
        for _ in range(100):
            float(np.sqrt(np.einsum("ijk,ijk->ij", a, a)).max())
        x = 0
        for i in range(200_000):
            x += i * i
        return x

    def sample(self):
        for _ in range(SAMPLES_PER_CALL):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Nominal over measured kernel time: below 1 on a slow host."""
        return NOMINAL_S / statistics.median(self.samples)
