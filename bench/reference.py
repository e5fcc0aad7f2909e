"""A fixed reference computation that sets the unit of the benchmark's call times.

On a shared host the speed of one core can swing by 1.5x or more within
seconds and stay off for minutes, while other tenants come and go; times in
seconds then measure the neighbours as much as tapflow. The benchmark times
``reference()`` after every call and reports each call's time divided by the
mean of the reference times just before and just after it: a call time in
"ref", the time this computation takes at that moment on that core.

The computation mixes what a tapflow call does: an interpreted Python loop and
a sparse LU factorization, solve and product through scipy. It does not
import tapflow, so a change to tapflow cannot change the unit. On a 2 GHz
Xeon core one ref is about 13-17 ms.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_N = 400
_MATRIX = (sp.random(_N, _N, density=0.01, random_state=1, format="csc")
           + 5.0 * sp.identity(_N, format="csc")).tocsc()
_RHS = np.ones(_N)


def reference() -> float:
    """Run the reference computation once; return a checksum of its result."""
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    y = _RHS
    for _ in range(3):
        y = _MATRIX @ spla.splu(_MATRIX).solve(_RHS)
    return acc + float(y.sum())


def timed_reference() -> float:
    """Wall time of one run of ``reference``, in seconds."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
