"""Timing in reference seconds, steady on a machine whose speed changes.

The shared 2-core machine the benchmark was written on runs at two speed
levels about 1.45x apart and switches between them within seconds; the
share of time spent at each level changes from minute to minute. The same
call took 0.21 s or 0.34 s depending on when it ran, and the median of a
38-second run moved by a quarter between runs.

`speed_probe` is a fixed piece of work, a pure-Python loop and small numpy
operations like those of the program. Its time tracks the machine's speed:
over 89 checkpoint snapshots, the snapshot time divided by the mean of the
probes run just before and after it spread 0.044 (interquartile range over
median), where the raw time spread 0.26.

`PassTimer` runs a probe before a timed call and after it, and scales the
call's wall time by `PROBE_REF_S` over the mean of the two probes: the
time the call would have taken at the machine's faster level. Within
`step_probes`, training steps add probes inside the call, so that a stage
of several seconds is scaled piece by piece. The probes' own time is left
out. The wall times are kept as well, for the raw record.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from tpp import optim

# the probe's time at the faster speed level of the machine the benchmark
# was written on (2-core Intel Xeon, Python 3.11, one BLAS thread)
PROBE_REF_S = 0.0125
# shortest segment of a timed call between two probes: a probe takes ~18 ms
MIN_SEGMENT_S = 0.3

_BYTES = bytes(range(256)) * 160
_X = np.random.default_rng(0).standard_normal((64, 5, 64))
_W = np.random.default_rng(1).standard_normal((64, 64))


def speed_probe() -> float:
    """Wall time of a fixed mix of pure-Python and small numpy work."""
    t0 = time.perf_counter()
    h = 0xCBF29CE484222325
    for byte in _BYTES:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    y = _X
    for _ in range(40):
        y = np.tanh(y @ _W * 0.1) + _X
        y = y - y.mean(-1, keepdims=True)
    return time.perf_counter() - t0


def reference_time(wall: float, before: float, after: float) -> float:
    """`wall` seconds scaled to the reference speed by the probes around it."""
    return wall * 2.0 * PROBE_REF_S / (before + after)


class PassTimer:
    """Times the parts of one pass, in reference and in wall seconds."""

    def __init__(self):
        self.ref: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}

    def time(self, part: str, fn, repeats: int = 1, calls: int = 1):
        """Call `fn` `repeats` times and time each call; returns the last result.

        `fn` makes `calls` calls of `part`, and each time recorded is per
        call. One probe runs between two calls of `fn` and counts for both.
        Inside `step_probes`, more probes split a call into segments, and
        each segment is scaled by the probes at its two ends.
        """
        global _timing
        self._probe = speed_probe()
        for _ in range(repeats):
            self._ref = self._wall = 0.0
            _timing = self
            self._t0 = time.perf_counter()
            try:
                result = fn()
            finally:
                _timing = None
            self._segment()
            self.wall.setdefault(part, []).append(self._wall / calls)
            self.ref.setdefault(part, []).append(self._ref / calls)
        return result

    def _segment(self) -> None:
        """End the segment that runs since `_t0` with a probe, whose time is left out."""
        wall = time.perf_counter() - self._t0
        probe = speed_probe()
        self._wall += wall
        self._ref += reference_time(wall, self._probe, probe)
        self._probe = probe
        self._t0 = time.perf_counter()


_timing: PassTimer | None = None  # the timer whose call is running


@contextlib.contextmanager
def step_probes():
    """Probe the speed after a training step, if MIN_SEGMENT_S have passed.

    A training stage or cli verb runs for seconds, long enough for the
    machine to change speed within it; probes at step ends follow those
    changes. The hook goes on `AdamW.zero_grad`, the last optimizer call of
    a step, and comes off when the block ends. Traced runs leave it off, so
    that probes do not count in the program's spans.
    """
    original = optim.AdamW.zero_grad

    def zero_grad(self):
        original(self)
        if _timing is not None and time.perf_counter() - _timing._t0 >= MIN_SEGMENT_S:
            _timing._segment()

    optim.AdamW.zero_grad = zero_grad
    try:
        yield
    finally:
        optim.AdamW.zero_grad = original
