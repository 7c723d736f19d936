"""A fixed calibration kernel that measures how fast the machine runs right now.

The benchmark's host shares its cores with other tenants, and its speed for
the same code drifts by up to a factor of two over tens of seconds. The
benchmark runs this kernel before every op and scales each pass's op times by
REFERENCE_S / (median kernel time in that pass), which reports them in
milliseconds of a machine on which the kernel takes REFERENCE_S. The kernel
mixes the kinds of work the package does (integer and Fraction elimination,
small int64 numpy elimination, JSON round trips, tuple and dict building),
and it belongs to the benchmark, so no change to the package moves it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter

import numpy as np

#: kernel time, in seconds, on the reference machine that reported times refer to
REFERENCE_S = 0.0015

_INTS = [[(i * 7 + j * 13) % 17 - 8 + 40 * (i == j) for j in range(6)] for i in range(6)]
_FRACTIONS = [[Fraction(x, (i + j) % 5 + 1) for j, x in enumerate(row)] for i, row in enumerate(_INTS)]
_ARRAY = np.array(_INTS, dtype=np.int64)
_DOC = {"field": "Q", "d": 3, "n": 8, "columns": [[str(Fraction(i, j + 1)) for i in range(4)] for j in range(8)]}


def _bareiss(rows):
    a = [list(r) for r in rows]
    prev = 1
    for k in range(len(a) - 1):
        pk = a[k][k]
        for i in range(k + 1, len(a)):
            aik, ri, rk = a[i][k], a[i], a[k]
            for j in range(k + 1, len(a)):
                ri[j] = (ri[j] * pk - aik * rk[j]) // prev
        prev = pk
    return a[-1][-1]


def _fraction_elimination(rows):
    a = [list(r) for r in rows]
    for k in range(len(a)):
        inv = 1 / a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] * inv
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return a[-1][-1]


def _modular_elimination(a, p=65521):
    a = a % p
    for k in range(a.shape[0] - 1):
        inv = pow(int(a[k, k]), p - 2, p)
        f = a[k + 1 :, k] * inv % p
        a[k + 1 :, k:] = (a[k + 1 :, k:] - f[:, None] * a[k, k:]) % p
    return int(a[-1, -1])


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = perf_counter()
    for _ in range(2):
        _bareiss(_INTS)
        _fraction_elimination(_FRACTIONS)
        _modular_elimination(_ARRAY)
        json.loads(json.dumps(_DOC))
        sorted({(i, j): i * j for i in range(8) for j in range(8)}.items())
    return perf_counter() - start
