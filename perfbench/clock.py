"""Operation times in units of a speed reference sampled between shots.

On a shared machine the speed of one core drifts by tens of percent over
tens of seconds, for reasons outside the process: a fixed pure-Python
kernel took 21 ms, then 31 ms, within one 40 s window, and ten runs of
the same sweep workload spread by (Q3 - Q1) / median = 0.26 in op_s.
A raw time then says as much about the neighbours as about the program.

Reference times a fixed pure-Python kernel at most every INTERVAL
seconds, at the start of a shot (wrapping shooter.shoot, which leaves
the shot itself untouched) and at operation boundaries.  A span's time
in reference units cuts the span at each sample and divides each piece
by the running median of the nearest SMOOTH kernel times, so a change of
machine speed inside a long solve is followed.  Sampling at shot starts
keeps the samples away from timer ticks: a kernel run from a SIGALRM
handler, right after a tick, slowed about twice as much as the program.
"""
from __future__ import annotations

import bisect
import statistics
import time

INTERVAL = 0.25
SMOOTH = 5


def kernel() -> float:
    """Fixed work in the program's style: scalar float arithmetic and tuples."""
    t, y = 0.1, (1.0, -0.1, 0.0, 0.5)
    for _ in range(2000):
        k = (y[1], y[0] * (y[0] * y[0] - 1.0) / (t * t) + y[2] * y[2] * y[0],
             y[3], -2.0 * y[3] / t + 2.0 * y[0] * y[0] * y[2] / (t * t))
        y = tuple(y[i] + 1e-4 * k[i] for i in range(4))
        t += 1e-4
    return y[0]


class Reference:
    """Kernel timings (taken at, seconds) collected while the program runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._patched = None

    def sample(self) -> None:
        t = time.perf_counter()
        kernel()
        self.samples.append((t, time.perf_counter() - t))

    def _maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL:
            self.sample()

    def install(self) -> None:
        """Sample at the start of shots, around whatever shoot is installed."""
        from monopole import shooter
        orig = shooter.shoot

        def shoot(*args, **kwargs):
            self._maybe_sample()
            return orig(*args, **kwargs)
        self._patched = orig
        shooter.shoot = shoot

    def uninstall(self) -> None:
        from monopole import shooter
        shooter.shoot = self._patched

    def sampling_seconds(self, start: float, end: float) -> float:
        return sum(d for t, d in self.samples if start <= t < end)

    def units(self, start: float, end: float) -> float:
        """Time of [start, end] net of sampling, in local kernel times."""
        times = [t for t, _ in self.samples]
        half = SMOOTH // 2
        cuts = [start] + [t for t in times if start < t < end] + [end]
        total = 0.0
        for u, v in zip(cuts, cuts[1:]):
            i = min(bisect.bisect_left(times, 0.5 * (u + v)), len(times) - 1)
            lo = max(0, min(i - half, len(times) - SMOOTH))
            local = statistics.median(d for _, d in self.samples[lo:lo + SMOOTH])
            total += (v - u - self.sampling_seconds(u, v)) / local
        return total
