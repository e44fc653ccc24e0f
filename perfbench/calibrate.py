"""Host-speed calibration of the benchmark's clocks.

The shared hosts the benchmark runs on change speed by 1.5x or more over
seconds to minutes, and thread CPU time moves with wall time, so raw
item times spread across runs far more than the program does.  The worker
therefore interleaves a fixed reference kernel with its items: after every
`EVERY_S` seconds of item time it runs the kernel once and records how long
it took.  Each item's latency is then divided by the median time of the
`NEAR` kernel runs closest to it in time, and multiplied by the kernel's
nominal time (`REF_S`).  A calibrated time is what the item would have taken
on a host where the kernel takes exactly its nominal time.

The kernels do not call the library and are shielded from its heap (no
garbage collection inside them, no allocation that depends on earlier
ones), so a change to the library does not speed them up or slow them down;
the host does.  There are two: exact rational arithmetic with
fractions.Fraction for the exact workloads, and numpy array arithmetic for
the float workload.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

EVERY_S = 0.02  # item seconds between two kernel runs
NEAR = 9  # kernel runs that calibrate one item
SETUP_RUNS = 9  # kernel runs that calibrate one set-up time
REF_S = {"python": 0.002, "numpy": 0.0025}  # nominal kernel times

# A fixed digit string; the Python kernel maps it to a point and back.
_DIGITS = (1, 3, 1, 2, 9, 1, 1, 4, 2, 1, 6, 1, 2, 1, 3, 1, 1, 2, 4, 1, 1, 2, 1, 9, 3, 1, 1, 6)
_Q = Fraction(3, 5)


def python_kernel() -> bool:
    """An exact Lüroth-style round trip written with fractions.Fraction.

    It evaluates `_DIGITS` under the geometric law p_j = (1 - q) q^(j-1),
    then decodes the point back by probing cylinder ends, which is the kind
    of rational work the exact workloads do.  The garbage collector is off
    while it runs and every object it makes is freed by reference count, so
    the objects the library keeps alive do not change how long it takes.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        lo, width = Fraction(0), Fraction(1)
        for d in _DIGITS:
            tail = _Q ** (d - 1)
            lo += width * (1 - tail)
            width *= (1 - _Q) * tail
        x = lo + width / 3
        lo, width, decoded = Fraction(0), Fraction(1), []
        for _ in _DIGITS:
            j, tail = 1, Fraction(1)
            while lo + width * (1 - tail * _Q) <= x:
                tail *= _Q
                j += 1
            decoded.append(j)
            lo += width * (1 - tail)
            width *= (1 - _Q) * tail
        return tuple(decoded) == _DIGITS
    finally:
        if collecting:
            gc.enable()


_ARRAYS = None


def numpy_kernel() -> float:
    """Elementwise float work on 250 000-element arrays, as numeric does.

    It writes into arrays it allocated once, so its time does not depend on
    what the allocator holds after the library's own large arrays.
    """
    global _ARRAYS
    import numpy

    if _ARRAYS is None:
        _ARRAYS = numpy.linspace(1.0, 2.0, 250_000), numpy.empty(250_000), numpy.empty(250_000)
    a, b, c = _ARRAYS
    for scale in (1.0000001, 0.9999999):
        numpy.multiply(a, scale, out=b)
        numpy.log(b, out=c)
        numpy.multiply(c, 3.0, out=c)
        numpy.floor(c, out=c)
        numpy.add(b, c, out=b)
    return float(b[-1])


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def timed(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def setup_scale() -> float:
    """Nominal over measured Python-kernel time, taken right after set-up.

    Set-up is imports, input generation and warm-up, which is interpreter
    work in every workload, so the Python kernel calibrates it.
    """
    python_kernel()
    median = statistics.median(timed(python_kernel) for _ in range(SETUP_RUNS))
    return REF_S["python"] / median


class Calibrator:
    """Interleaves kernel runs with items and calibrates item latencies."""

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.kernel()
        self.owed = 0.0  # item seconds since the last kernel run
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def after_item(self, item_seconds: float) -> None:
        self.owed += item_seconds
        while self.owed >= EVERY_S:
            self.owed -= EVERY_S
            self.starts.append(time.perf_counter())
            self.seconds.append(timed(self.kernel))

    def calibrate(self, item_starts: list[float], latencies: list[float]) -> list[float]:
        """Each latency times nominal over the median of its nearest kernel runs."""
        if not self.seconds:  # a run too short for one kernel run
            self.starts.append(time.perf_counter())
            self.seconds.append(timed(self.kernel))
        ref, half = REF_S[self.kind], NEAR // 2
        out = []
        for start, latency in zip(item_starts, latencies):
            j = bisect.bisect(self.starts, start)
            lo = max(0, min(j - half, len(self.seconds) - NEAR))
            out.append(latency * ref / statistics.median(self.seconds[lo : lo + NEAR]))
        return out

    def median_s(self) -> float:
        return statistics.median(self.seconds)
