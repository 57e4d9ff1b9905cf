"""Host-speed calibrated timing.

The benchmark host is a shared 2-core VM whose single-thread speed swings
by up to 2x within seconds (other tenants on the sibling hardware threads).
CPU time follows wall time, so neither can tell a slower program from a
slower host.  ``CalibratedTimer`` therefore samples the host's speed while
the timed code runs: a ``SIGALRM`` every ``PROBE_INTERVAL_S`` runs a fixed
probe of about half a millisecond, and one probe runs just before and just
after the region.  Each probe's speed is ``PROBE_REF_S / its duration``;
the region's *calibrated seconds* are its time minus the probes inside it,
times the mean speed.

A probe interrupting the program starts with cold caches, as the program
does after its neighbours ran, so it slows down with the program under
contention; a warmed-up probe tracked the program about four times worse.
``PROBE_REF_S`` only fixes the unit: it is near the probe's time on an
idle core of the reference host (Intel Xeon at 2.1 GHz, CPython 3.11), so
calibrated seconds are of the order of real seconds there, not equal to
them.

The probe shares no code with the package, so a change to the package
cannot move it, and it allocates no container objects, so it never
triggers the garbage collector inside the program it interrupts.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time

PROBE_REF_S = 0.0005
PROBE_INTERVAL_S = 0.05
_ROUNDS = 1650
_TABLE = list(range(64))
_SCRATCH: dict[int, int] = {}


def _probe_work(rounds: int = _ROUNDS) -> int:
    x = 12345
    acc = 0
    d = _SCRATCH
    d.clear()
    t = _TABLE
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 63
        d[k] = d.get(k, 0) + t[(x >> 6) & 63]
        if x & 1:
            acc += len(d)
    return acc


def probe() -> float:
    """Seconds one probe takes now."""
    t0 = perf_counter()
    _probe_work()
    return perf_counter() - t0


class CalibratedTimer:
    """Times a ``with`` block.  Afterwards ``wall`` and ``cpu`` hold raw
    seconds (probe time inside the block excluded) and ``speed`` the mean
    host speed relative to the reference; ``wall * speed`` and
    ``cpu * speed`` are calibrated seconds.  Not reentrant: it owns
    ``SIGALRM`` while the block runs."""

    def __init__(self):
        self.wall = self.cpu = self.speed = 0.0
        self._probes: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self._probes.append(probe())

    def __enter__(self):
        self._probes = [probe()]
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._t0, self._c0 = perf_counter(), process_time()
        return self

    def __exit__(self, *exc):
        wall, cpu = perf_counter() - self._t0, process_time() - self._c0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        inside = sum(self._probes[1:])
        self._probes.append(probe())
        self.wall = wall - inside
        self.cpu = cpu - inside
        self.speed = sum(PROBE_REF_S / p for p in self._probes) / len(self._probes)
        return False
