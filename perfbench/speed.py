"""Rescaling wall time to a fixed reference speed.

On a shared 2-vCPU virtual machine the same Python code runs up to 40%
slower or faster from one ten-second stretch to the next, which swamps
the differences a benchmark must resolve.  So the timed loop runs a
small fixed probe (bitset popcounts, a generator and a dict, the mix the
library's kernel spends its time in) every PROBE_EVERY seconds, and each
measured time is multiplied by PROBE_REF_S / probe time, the probe time
being the mean of the probes just before and just after the
measurement.  Reported times therefore read "at the speed where the
probe takes PROBE_REF_S"; the raw wall times are printed alongside.
The probe is benchmark code, so no library change can move it.
"""

from __future__ import annotations

import random
import time

PROBE_REF_S = 0.0005
PROBE_EVERY = 0.2

_rng = random.Random(0)
_MASKS = [_rng.getrandbits(24) for _ in range(48)]


def _bits(m: int):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _probe() -> int:
    seen: dict[int, int] = {}
    acc = 0
    for m in _MASKS:
        for v in _bits(m):
            acc += bin(m & _MASKS[v]).count("1")
            seen[v] = seen.get(v, 0) + 1
    return acc + len(seen)


def probe_time() -> float:
    """Seconds for one probe run, the best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """A series of timestamped probes, and the scale factor for a
    measurement that started after probe ``i``.

    ``probe`` returns the probe time and ``ref`` is its time at the
    reference speed.  The CLI workload times child processes, whose speed
    a probe in the parent does not see (right after a child exits, the
    parent's probe scatters by 30-50%), so it passes a probe that times a
    bare child interpreter instead."""

    def __init__(self, probe=probe_time, ref: float = PROBE_REF_S, every: float = PROBE_EVERY):
        self._probe_fn = probe
        self.ref = ref
        self.every = every
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> int:
        self.probes.append((time.perf_counter(), self._probe_fn()))
        return len(self.probes) - 1

    def maybe_probe(self) -> int:
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= self.every:
            self.probe()
        return len(self.probes) - 1

    def scale(self, i: int) -> float:
        before = self.probes[i][1]
        after = self.probes[i + 1][1] if i + 1 < len(self.probes) else before
        return self.ref / ((before + after) / 2)

    def timed(self, fn) -> float:
        """Run fn once between two probes; its rescaled duration."""
        i = self.probe()
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        self.probe()
        return dt * self.scale(i)
