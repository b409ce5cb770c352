"""Machine-speed calibration that the benchmark runs after every op.

A shared 2-vCPU Xeon VM changes speed by up to 2x over seconds to minutes,
in wall and CPU time alike, when other tenants load its cores; the same op
then takes up to twice as long. A fixed unit of work, independent of
greenhrt, slows down with the machine, so dividing an op's time by the
slowdown measured around it cancels most of the drift.

Two units exist. The ``python`` unit is interpreted Python (generators,
small tuples, function calls, ``math.comb`` and bisection). The ``numpy``
unit is a few steps of dense elimination mod p on int64 rows, the kind of
work the oracle's rank does. Vectorised numpy code slows down less than
the interpreter when the machine is loaded, so a workload whose ops are
partly numpy needs both (``workloads.CALIBRATION``). ``REFERENCE_S`` holds
each unit's time at the reference speed: the python unit's 10th percentile
on such a VM (Intel Xeon, Python 3.11.7), and a numpy unit time that gives
the same median slowdown as the python unit while the VM is lightly loaded
(numpy 2.4). A slowdown of 1.0 means reference speed.
"""
from __future__ import annotations

import bisect
import functools
import math
from time import perf_counter

_GENS = ((2, 1, 0, 3), (0, 3, 1, 1), (1, 1, 1, 1))


def _monomials(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in _monomials(n - 1, d - e):
            yield (e,) + rest


def _divmod_pair(a: int, d: int) -> tuple[int, int]:
    return a % d, a // d


def _python_work() -> int:
    acc = sum(
        any(all(e >= g for e, g in zip(mono, gen)) for gen in _GENS)
        for mono in _monomials(4, 7)
    )
    row = [math.comb(i + 3, 3) for i in range(60)]
    acc += sum(bisect.bisect_right(row, x) for x in range(0, 30000, 300))
    acc += sum(i * i % 7 for i in range(3000))
    acc += len([_divmod_pair(a * 31, 7) for a in range(800)])
    return acc


_P = 32003


@functools.cache
def _matrix():
    import numpy as np

    return np.random.default_rng(_P).integers(1, _P, size=(192, 384), dtype=np.int64)


def _numpy_work() -> int:
    import numpy as np

    mat = _matrix().copy()
    for col in range(4):
        mat[col] = (mat[col] * pow(int(mat[col, col]), -1, _P)) % _P
        below = np.nonzero(mat[col + 1:, col])[0] + col + 1
        mat[below] = (mat[below] - mat[below, col][:, None] * mat[col]) % _P
    return int(mat[-1, -1])


_WORK = {"python": _python_work, "numpy": _numpy_work}
REFERENCE_S = {"python": 0.0007, "numpy": 0.0026}
# Each slowdown takes the median of at least MIN_UNITS and at most MAX_UNITS units.
MIN_UNITS = 2
MAX_UNITS = 50


def unit_time(unit: str) -> float:
    work = _WORK[unit]
    start = perf_counter()
    work()
    return perf_counter() - start


def slowdown(min_s: float, unit: str) -> float:
    """Median unit time over the reference time, over units run for min_s."""
    times = []
    start = perf_counter()
    while len(times) < MIN_UNITS or (perf_counter() - start < min_s and len(times) < MAX_UNITS):
        times.append(unit_time(unit))
    times.sort()
    return times[len(times) // 2] / REFERENCE_S[unit]
